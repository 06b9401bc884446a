//! Compiled-JS module cache shared across scan workers.
//!
//! Traffic-exchange campaigns reuse packed payloads across thousands of
//! pages (§IV of the paper groups them into campaigns precisely because
//! the *same* obfuscated script shows up under many URLs). The bytecode
//! engine in `slum-js` therefore keys compiled [`Module`]s by a content
//! hash of the source, so a payload seen on page one compiles once and
//! every later page — and every `eval` layer inside it — executes the
//! cached bytecode.
//!
//! [`JsModuleCache`] is the concrete [`ModuleStore`] the pipeline hands
//! to each sandbox: one `RwLock`ed map from source hash to module,
//! shared by every scan worker. Modules appear while scripts run —
//! `eval` layers included — so this is one of the two scan caches whose
//! keys are not known before the scan starts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use slum_js::{Module, ModuleStore};

use crate::CacheStats;

/// A concurrent [`ModuleStore`] keyed by `slum_js::source_hash`.
#[derive(Default)]
pub struct JsModuleCache {
    modules: RwLock<HashMap<u64, Arc<Module>>>,
    /// Logical lookups: a [`ModuleStore::get`] hit or a
    /// [`ModuleStore::get_or_compile`] call. The VM probes `get` first
    /// and only falls through to `get_or_compile` on a miss, so each
    /// script run counts once however workers race.
    lookups: AtomicU64,
}

impl JsModuleCache {
    /// Creates an empty module cache.
    pub fn new() -> Self {
        JsModuleCache::default()
    }

    /// The module map, ignoring poison from a panicked holder: a module
    /// is inserted whole or not at all.
    fn modules(&self) -> RwLockReadGuard<'_, HashMap<u64, Arc<Module>>> {
        self.modules.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of distinct compiled modules currently cached.
    pub fn len(&self) -> usize {
        self.modules().len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.modules().is_empty()
    }

    /// Lookup/entry/hit statistics. `entries` is the number of
    /// distinct modules, so `hits` (lookups − entries) does not depend
    /// on which worker compiled first.
    pub fn stats(&self) -> CacheStats {
        CacheStats::new(self.lookups.load(Ordering::Relaxed), self.len() as u64)
    }

    /// Total wall-clock nanoseconds spent compiling every cached
    /// module. Wall-clock, so only suitable for throughput reporting —
    /// never for verdict-determining data.
    pub fn total_compile_nanos(&self) -> u64 {
        self.modules().values().fold(0u64, |acc, module| acc.saturating_add(module.compile_nanos))
    }

    /// Total bytecode instructions across all cached modules (a size
    /// proxy for the cache footprint).
    pub fn total_instructions(&self) -> u64 {
        self.modules()
            .values()
            .map(|module| module.chunks.iter().map(|c| c.code.len() as u64).sum::<u64>())
            .sum()
    }
}

impl std::fmt::Debug for JsModuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("JsModuleCache")
            .field("modules", &stats.entries)
            .field("lookups", &stats.lookups)
            .finish()
    }
}

impl ModuleStore for JsModuleCache {
    fn get(&self, key: u64) -> Option<Arc<Module>> {
        let hit = self.modules().get(&key).cloned();
        if hit.is_some() {
            self.lookups.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Compiles outside the lock; when two workers race on one source,
    /// the first insert wins and both get that module.
    fn get_or_compile(
        &self,
        key: u64,
        compile: &mut dyn FnMut() -> Arc<Module>,
    ) -> Arc<Module> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(hit) = self.modules().get(&key) {
            return Arc::clone(hit);
        }
        let module = compile();
        let mut modules = self.modules.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(modules.entry(key).or_insert(module))
    }
}

// The scan phase shares one JsModuleCache across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<JsModuleCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use slum_js::sandbox::Sandbox;
    use slum_js::source_hash;

    #[test]
    fn compiles_once_per_distinct_source() {
        let cache = JsModuleCache::new();
        let src = "var a = 1; alert(a);";
        let key = source_hash(src);

        assert!(cache.get(key).is_none());
        let mut compiles = 0;
        let mut make = || {
            compiles += 1;
            slum_js::compile::compile_program(
                &slum_js::parse_program(src).expect("valid source"),
                key,
            )
        };
        let first = cache.get_or_compile(key, &mut make);
        let second = cache.get_or_compile(key, &mut make);
        assert_eq!(compiles, 1);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn sandbox_populates_shared_cache() {
        let cache = Arc::new(JsModuleCache::new());
        let store: Arc<dyn ModuleStore> = cache.clone();

        let report = Sandbox::new()
            .with_module_store(store.clone())
            .run("document.write('<b>hi</b>');");
        assert!(report.errors.is_empty());
        assert_eq!(cache.len(), 1);
        assert!(cache.total_compile_nanos() > 0 || cache.total_instructions() > 0);

        // Same payload from a "different page": pure cache hit.
        let again = Sandbox::new().with_module_store(store).run("document.write('<b>hi</b>');");
        assert!(again.errors.is_empty());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 1);
    }
}
