//! Content-addressed page caching.
//!
//! A crawl opens a few hundred thousand pages but only a few percent of
//! them carry a body the crawl has not seen before: a site serves the
//! same markup to every visit whatever tracking query the exchange
//! appended. [`BodyCache`] keys a value on the body text itself, so the
//! work a value stands for runs once per distinct body, and it interns
//! each body as one shared `Arc<str>`, so every load and crawl record
//! that saw the body holds the same allocation.
//!
//! [`SyntheticWeb::parsed`](crate::SyntheticWeb::parsed) uses one to
//! parse each distinct body once into a [`slum_html::Outline`]; the scan
//! pipeline uses another for the static detection features of each
//! distinct body.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use slum_html::Outline;

/// One page body as a browser loads it: the shared text and its
/// outline.
#[derive(Debug, Clone)]
pub struct ParsedPage {
    /// The body, shared by every load of equal text.
    pub body: Arc<str>,
    /// What loading the body needs from its DOM.
    pub outline: Arc<Outline>,
}

/// A concurrent map from page-body text to a value derived from it.
///
/// Every value must be a pure function of its body: two threads that
/// meet a new body at once may both compute its value, and the first
/// insert wins, so the race costs time but never changes a result.
pub struct BodyCache<V> {
    map: RwLock<HashMap<Arc<str>, V>>,
}

impl<V> Default for BodyCache<V> {
    fn default() -> Self {
        BodyCache { map: RwLock::new(HashMap::new()) }
    }
}

impl<V> fmt::Debug for BodyCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BodyCache").field("bodies", &self.len()).finish()
    }
}

impl<V> BodyCache<V> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct bodies cached.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when no body is cached.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Drops every cached body.
    pub fn clear(&self) {
        self.write().clear();
    }

    /// The map, ignoring poison from a panicked holder: an entry is
    /// inserted whole or not at all.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<Arc<str>, V>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<Arc<str>, V>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<V: Clone> BodyCache<V> {
    /// The value for `body`, computed by `make` the first time this text
    /// is seen, together with the cache's shared copy of the text.
    ///
    /// Passing an `Arc<str>` lets a new entry keep that allocation as
    /// its key; passing a `&str` copies the text only when it is new.
    /// `make` runs outside the lock.
    pub fn get_or_insert_with<K>(&self, body: K, make: impl FnOnce(&str) -> V) -> (Arc<str>, V)
    where
        K: AsRef<str> + Into<Arc<str>>,
    {
        if let Some((key, value)) = self.read().get_key_value(body.as_ref()) {
            return (Arc::clone(key), value.clone());
        }
        let value = make(body.as_ref());
        let mut map = self.write();
        if let Some((key, value)) = map.get_key_value(body.as_ref()) {
            return (Arc::clone(key), value.clone());
        }
        let key: Arc<str> = body.into();
        map.insert(Arc::clone(&key), value.clone());
        (key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_text_shares_one_allocation_and_one_computation() {
        let cache: BodyCache<usize> = BodyCache::new();
        let mut computed = 0;
        let (a, va) = cache.get_or_insert_with("<p>hi</p>", |b| {
            computed += 1;
            b.len()
        });
        let owned: Arc<str> = Arc::from("<p>hi</p>");
        let (b, vb) = cache.get_or_insert_with(owned, |_| unreachable!("cached"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((va, vb, computed), (9, 9, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_new_arc_key_is_kept_not_copied() {
        let cache: BodyCache<()> = BodyCache::new();
        let body: Arc<str> = Arc::from("<html></html>");
        let (key, ()) = cache.get_or_insert_with(Arc::clone(&body), |_| ());
        assert!(Arc::ptr_eq(&key, &body));
    }
}
