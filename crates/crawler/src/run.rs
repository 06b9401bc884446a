//! Multi-source crawl orchestration.
//!
//! One builder, [`CrawlPlan`], configures a crawl over any
//! [`TrafficSource`] substrate (exchanges, ad networks, torrent
//! indexes), and one driver runs it: [`CrawlPlan::run_segmented`]
//! crawls bounded rounds with a checkpoint sink between them, resumable
//! from a [`CrawlCheckpointState`], over the one loop implementation
//! (`drive::crawl_exchange_segment`). [`crawl_all_resilient`] is that
//! driver run to completion in one unbounded segment with a no-op sink.
//!
//! Per-source stores merge in source input order, so the merged record
//! stream is independent of thread scheduling.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use slum_detect::JsModuleCache;
use slum_exchange::lifecycle::ExchangeLifecycle;
use slum_exchange::TrafficSource;
use slum_websim::{SyntheticWeb, Url};

use crate::drive::{
    crawl_exchange_segment, estimated_span_secs, record_har, record_visit, CrawlConfig,
    CrawlCursor, CrawlStats,
};
use crate::fault::{CrawlFaultProfile, CrawlHealth};
use crate::record::CrawlVisit;
use crate::store::RecordStore;

/// The RNG seed for the `index`-th source's crawl stream, derived
/// from the study seed exactly as the original per-thread crawl did.
pub fn exchange_crawl_seed(base_seed: u64, index: usize) -> u64 {
    base_seed.wrapping_add(index as u64 * 7919)
}

/// Per-source crawl plan: the configuration a fresh cursor starts from
/// (only the slot budget and the seed vary by source) plus the compiled
/// lifecycle-fault schedule.
fn crawl_plans<S, F>(
    sources: &[S],
    base_seed: u64,
    profile: &CrawlFaultProfile,
    step_fn: F,
) -> Vec<(CrawlConfig, ExchangeLifecycle)>
where
    S: TrafficSource,
    F: Fn(&S) -> u64,
{
    sources
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let steps = step_fn(x);
            let seed = exchange_crawl_seed(base_seed, i);
            let config = CrawlConfig { steps, seed, ..Default::default() };
            let span = estimated_span_secs(x.min_surf_secs(), x.kind(), steps);
            let lifecycle = profile.compile_for(x, base_seed, span);
            (config, lifecycle)
        })
        .collect()
}

/// Builder configuring one multi-source crawl: fault profile, segment
/// budget, resume state and kill point. [`run_segmented`](Self::run_segmented)
/// runs it over any [`TrafficSource`]; the merged record stream is
/// bit-identical for every segment budget, resume point and kill.
#[derive(Debug, Clone, Default)]
pub struct CrawlPlan {
    base_seed: u64,
    profile: CrawlFaultProfile,
    segment_budget: Option<u64>,
    resume: Option<CrawlCheckpointState>,
    stop_after_round: Option<u64>,
    /// The crawl's compiled-module cache (default: a fresh one).
    modules: Arc<JsModuleCache>,
}

impl CrawlPlan {
    /// A plan seeded with the study seed: inert fault profile, unbounded
    /// segments, no resume state.
    pub fn new(base_seed: u64) -> Self {
        CrawlPlan { base_seed, ..Default::default() }
    }

    /// Crawl under a named fault profile (default: inert).
    #[must_use]
    pub fn fault_profile(mut self, profile: CrawlFaultProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Bound each segment round to `budget` surf slots (default:
    /// unbounded). Must be positive.
    #[must_use]
    pub fn segment_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "segment budget must be positive");
        self.segment_budget = Some(budget);
        self
    }

    /// Continue an interrupted crawl from a checkpointed state instead
    /// of starting fresh.
    #[must_use]
    pub fn resume(mut self, state: CrawlCheckpointState) -> Self {
        self.resume = Some(state);
        self
    }

    /// Simulate a kill after the N-th segment round of this run
    /// (counting rounds executed by this call, not resumed-from ones).
    #[must_use]
    pub fn stop_after_round(mut self, rounds: u64) -> Self {
        self.stop_after_round = Some(rounds);
        self
    }

    /// Compile page scripts through `modules`, so a crawl run in
    /// several calls keeps one compiled-module cache. The cache never
    /// changes a load.
    #[must_use]
    pub fn module_cache(mut self, modules: Arc<JsModuleCache>) -> Self {
        self.modules = modules;
        self
    }

    /// Crawls every source in bounded segment rounds, invoking
    /// `on_round` with the full crawl state after each round — the
    /// checkpoint hook.
    ///
    /// Each round advances every unfinished source by up to the segment
    /// budget, in parallel (one thread per source); every page load
    /// compiles its scripts through the plan's one module cache.
    /// Because every fault and RNG decision is keyed to cursor position
    /// — never to segment boundaries — the merged outcome is
    /// bit-identical regardless of budget, resume points, or kills.
    ///
    /// # Errors
    ///
    /// Propagates the first `on_round` error; the crawl stops there.
    pub fn run_segmented<S, F, E>(
        self,
        web: &SyntheticWeb,
        sources: &mut [S],
        step_fn: F,
        on_round: &mut dyn FnMut(u64, &CrawlCheckpointState) -> Result<(), E>,
    ) -> Result<SegmentedCrawl, E>
    where
        S: TrafficSource + Send,
        F: Fn(&S) -> u64 + Sync,
    {
        let segment_budget = self.segment_budget.unwrap_or(u64::MAX);
        let plans = crawl_plans(sources, self.base_seed, &self.profile, &step_fn);

        let mut state = self.resume.unwrap_or_else(|| CrawlCheckpointState {
            round: 0,
            cursors: sources
                .iter()
                .zip(&plans)
                .map(|(x, (config, _))| CrawlCursor::start(x, config))
                .collect(),
            stores: sources.iter().map(|_| RecordStore::new()).collect(),
            restored: Vec::new(),
        });
        assert!(
            state.restored.is_empty(),
            "a decoded checkpoint resumes only after replay_restored_loads rebuilt its records"
        );
        assert_eq!(state.cursors.len(), sources.len(), "checkpoint/source count mismatch");
        for (cursor, x) in state.cursors.iter().zip(sources.iter()) {
            assert_eq!(cursor.exchange, x.name(), "checkpoint/source order mismatch");
        }

        let (profile, modules) = (&self.profile, &self.modules);
        let mut rounds_run = 0u64;
        while !state.all_done() {
            std::thread::scope(|scope| {
                let handles: Vec<_> = sources
                    .iter_mut()
                    .zip(state.cursors.iter_mut())
                    .zip(state.stores.iter_mut())
                    .zip(plans.iter())
                    .filter(|(((_, cursor), _), _)| !cursor.done)
                    .map(|(((source, cursor), store), (_, lifecycle))| {
                        scope.spawn(move || {
                            crawl_exchange_segment(
                                web,
                                source,
                                lifecycle,
                                &profile.retry,
                                modules,
                                cursor,
                                store,
                                segment_budget,
                            );
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("crawl worker panicked");
                }
            });

            state.round += 1;
            rounds_run += 1;
            on_round(state.round, &state)?;
            if self.stop_after_round == Some(rounds_run) && !state.all_done() {
                return Ok(SegmentedCrawl { state, finished: false, rounds_run });
            }
        }
        Ok(SegmentedCrawl { state, finished: true, rounds_run })
    }
}

/// Crawls every source to completion — one worker thread per source,
/// matching how the study ran independent sessions per service — under
/// a crawl-fault profile, and merges the per-source stores into one.
///
/// `step_fn` decides how many pages to log on each source (Table I's
/// volumes differ by two orders of magnitude between auto and manual).
/// Every source gets a compiled lifecycle schedule and the crawl
/// degrades (skip / retry / backoff) instead of aborting when a source
/// goes dark; the per-source health logs say what that cost. This is
/// [`CrawlPlan::run_segmented`] in one unbounded segment with a no-op
/// round sink.
pub fn crawl_all_resilient<S, F>(
    web: &SyntheticWeb,
    sources: &mut [S],
    base_seed: u64,
    profile: &CrawlFaultProfile,
    step_fn: F,
) -> (RecordStore, Vec<(String, CrawlStats)>, Vec<CrawlHealth>)
where
    S: TrafficSource + Send,
    F: Fn(&S) -> u64 + Sync,
{
    let outcome = CrawlPlan::new(base_seed)
        .fault_profile(profile.clone())
        .run_segmented::<S, F, std::convert::Infallible>(web, sources, step_fn, &mut |_, _| {
            Ok(())
        })
        .unwrap_or_else(|never| match never {});
    debug_assert!(outcome.finished);
    outcome.state.finish()
}

/// The complete resumable state of a multi-source crawl: one cursor
/// and the visits logged so far per source, in source input order,
/// plus the number of completed segment rounds. A checkpoint persists
/// the cursors and the visits; a record is a pure function of its visit
/// (see [`CrawlVisit`]), so it stores no record.
///
/// A live crawl holds its visits as the records in `stores`. A state
/// decoded from a checkpoint body ([`Self::from_body`]) holds them as
/// bare visits and its stores are empty until
/// [`replay_restored_loads`] rebuilds the records on the rebuilt web.
/// Both kinds encode to the same body.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlCheckpointState {
    /// Completed segment rounds (checkpoint files are numbered by it).
    pub round: u64,
    /// Per-source loop cursors, in source input order.
    pub cursors: Vec<CrawlCursor>,
    /// Per-source record stores, parallel to `cursors`.
    pub stores: Vec<RecordStore>,
    /// Per-source visits decoded from a checkpoint body and not yet
    /// rebuilt into records, parallel to `cursors`; empty for a live
    /// crawl.
    restored: Vec<Vec<CrawlVisit>>,
}

/// Line prefix marking a per-source cursor inside a checkpoint body.
const CURSOR_PREFIX: &str = "#cursor ";

/// A checkpoint body's line for one visit. The URL is written in its
/// display form, which `Url::parse` reads back to the same URL.
#[derive(Serialize, Deserialize)]
struct VisitLine {
    seq: u64,
    at: u64,
    url: String,
}

impl CrawlCheckpointState {
    /// True once every source has consumed its whole slot budget.
    pub fn all_done(&self) -> bool {
        self.cursors.iter().all(|c| c.done)
    }

    /// Total visits logged across all sources, rebuilt into records or
    /// not.
    pub fn records_total(&self) -> u64 {
        let records: usize = self.stores.iter().map(RecordStore::len).sum();
        let visits: usize = self.restored.iter().map(Vec::len).sum();
        (records + visits) as u64
    }

    /// Source `i`'s logged visits, oldest first, as `(seq, at, url)`:
    /// the decoded ones not yet rebuilt, then the ones its records were
    /// logged for.
    fn visits_of(&self, i: usize) -> impl Iterator<Item = (u64, u64, &Url)> {
        let restored = self.restored.get(i).into_iter().flatten().map(|v| (v.seq, v.at, &v.url));
        let logged = self.stores[i].records().iter().map(|r| (r.seq, r.at, &r.url));
        restored.chain(logged)
    }

    /// Serializes the state to a checkpoint body: for each source, a
    /// `#cursor {json}` line followed by one `{"seq":..,"at":..,"url":..}`
    /// line per logged visit.
    ///
    /// # Errors
    ///
    /// Propagates serde failures.
    pub fn to_body(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for (i, cursor) in self.cursors.iter().enumerate() {
            out.push_str(CURSOR_PREFIX);
            serde_json::append_to_string(&mut out, cursor)?;
            out.push('\n');
            for (seq, at, url) in self.visits_of(i) {
                let line = VisitLine { seq, at, url: url.to_string() };
                debug_assert_eq!(Url::parse(&line.url).as_ref(), Ok(url), "URL must round-trip");
                serde_json::append_to_string(&mut out, &line)?;
                out.push('\n');
            }
        }
        Ok(out)
    }

    /// Parses a checkpoint body written by [`Self::to_body`] into a
    /// state holding visits and no records: pass it through
    /// [`replay_restored_loads`] before resuming it.
    ///
    /// # Errors
    ///
    /// Returns `(line_number, detail)` for the first malformed line —
    /// a visit before any cursor header, unparseable JSON or URL, or a
    /// cursor/visit page-count mismatch.
    pub fn from_body(round: u64, body: &str) -> Result<Self, (usize, String)> {
        let mut cursors: Vec<CrawlCursor> = Vec::new();
        let mut restored: Vec<Vec<CrawlVisit>> = Vec::new();
        for (idx, line) in body.lines().enumerate() {
            let lineno = idx + 1;
            if line.trim().is_empty() {
                return Err((lineno, "blank line inside checkpoint body".to_string()));
            }
            if let Some(json) = line.strip_prefix(CURSOR_PREFIX) {
                let cursor: CrawlCursor = serde_json::from_str(json)
                    .map_err(|e| (lineno, format!("bad cursor: {e}")))?;
                cursors.push(cursor);
                restored.push(Vec::new());
            } else {
                let visits = restored
                    .last_mut()
                    .ok_or_else(|| (lineno, "visit before any #cursor header".to_string()))?;
                let bad = |e: String| (lineno, format!("bad visit: {e}"));
                let line: VisitLine = serde_json::from_str(line).map_err(|e| bad(e.to_string()))?;
                let url = Url::parse(&line.url).map_err(|e| bad(e.to_string()))?;
                visits.push(CrawlVisit { seq: line.seq, at: line.at, url });
            }
        }
        if cursors.is_empty() {
            return Err((0, "checkpoint body holds no cursors".to_string()));
        }
        for (cursor, visits) in cursors.iter().zip(&restored) {
            if cursor.pages != visits.len() as u64 {
                return Err((
                    0,
                    format!(
                        "cursor for {} claims {} pages but body holds {} visits",
                        cursor.exchange,
                        cursor.pages,
                        visits.len()
                    ),
                ));
            }
        }
        let stores = cursors.iter().map(|_| RecordStore::new()).collect();
        Ok(CrawlCheckpointState { round, cursors, stores, restored })
    }

    /// Consumes the state into the merged store, per-source stats and
    /// health logs — in source input order, same as
    /// [`crawl_all_resilient`]. The records move into the merged store;
    /// none is cloned.
    pub fn finish(self) -> (RecordStore, Vec<(String, CrawlStats)>, Vec<CrawlHealth>) {
        assert!(self.restored.is_empty(), "a decoded checkpoint finishes only after its rebuild");
        let mut merged = RecordStore::new();
        let mut stats = Vec::with_capacity(self.cursors.len());
        let mut health = Vec::with_capacity(self.cursors.len());
        for (cursor, store) in self.cursors.iter().zip(self.stores) {
            merged.extend(store.into_records());
            stats.push((cursor.exchange.clone(), cursor.stats()));
            health.push(cursor.health());
        }
        (merged, stats, health)
    }
}

/// Outcome of a (possibly interrupted) segmented crawl.
#[derive(Debug)]
pub struct SegmentedCrawl {
    /// The crawl state after the last completed round.
    pub state: CrawlCheckpointState,
    /// True when every source finished; false when stopped early by
    /// `stop_after_round`.
    pub finished: bool,
    /// Rounds executed by this call (excludes resumed-from rounds).
    pub rounds_run: u64,
}

/// Replays every restored visit's page load onto a freshly rebuilt web
/// and rebuilds its record from the load, returning the state with
/// every visit held as a record — the state to resume from.
///
/// Crawl-phase page loads mutate the synthetic web — most visibly the
/// shortener services' public hit statistics, which Table IV reads at
/// export time. A resumed study rebuilds the web from the study seed,
/// which reconstructs only the *initial* state; the hits accumulated by
/// the already-crawled (checkpointed) visits lived in the crashed
/// process and would silently vanish, making a kill/resume run diverge
/// from an uninterrupted one. Re-loading each visit's URL at its
/// virtual time under its source's click mode reapplies exactly those
/// mutations, and the load is the one the crawl made: a
/// [`Browser`](slum_browser::Browser) load is a pure function of
/// `(web, time, url, click-mode)`. So [`record_visit`], the function
/// the crawl loop logs every page with, rebuilds each record equal to
/// the crawled one. A visit exists if and only if a load actually
/// happened (lost slots and failed CAPTCHAs never touch the browser).
///
/// Call this once per resume, after rebuilding the web and before
/// continuing the crawl. Callers that keep one web alive across
/// segments (in-process round loops) must NOT call it — their web
/// already carries the side effects.
///
/// # Panics
///
/// Panics when `sources` are not the sources `state` crawled, in order.
pub fn replay_restored_loads<S: TrafficSource>(
    web: &SyntheticWeb,
    sources: &[S],
    state: &CrawlCheckpointState,
) -> CrawlCheckpointState {
    assert_eq!(state.cursors.len(), sources.len(), "checkpoint/source count mismatch");
    let modules = Arc::new(JsModuleCache::new());
    let stores = state
        .cursors
        .iter()
        .zip(sources)
        .enumerate()
        .map(|(i, (cursor, source))| {
            assert_eq!(cursor.exchange, source.name(), "checkpoint/source order mismatch");
            let mut store = RecordStore::new();
            for (seq, at, url) in state.visits_of(i) {
                let visit = CrawlVisit { seq, at, url: url.clone() };
                store.push(record_visit(web, source, &modules, &visit));
            }
            store
        })
        .collect();
    CrawlCheckpointState {
        round: state.round,
        cursors: state.cursors.clone(),
        stores,
        restored: Vec::new(),
    }
}

/// The corpus as JSON lines: every record of `store` with the HAR of
/// its load, which a record does not keep. Each record's visit is
/// surfed again on `web` with logging, under the click mode of the
/// source that crawled it (the private `record_har`), so the line equals the one
/// a record carrying its crawl-time HAR would print.
///
/// The replayed loads repeat the crawl's side effects (shortener hit
/// statistics), so `web` must be a web of its own, built from the
/// study's configuration as a checkpoint restore builds one, never the
/// web whose statistics a study reports.
///
/// # Errors
///
/// Propagates serde failures.
///
/// # Panics
///
/// Panics when a record names a source not in `sources`.
pub fn corpus_jsonl<S: TrafficSource>(
    web: &SyntheticWeb,
    sources: &[S],
    store: &RecordStore,
) -> Result<String, serde_json::Error> {
    let modules = Arc::new(JsModuleCache::new());
    store.to_jsonl(|record| {
        let source = sources
            .iter()
            .find(|s| record.exchange == s.name())
            .expect("every record's source is among the sources");
        record_har(web, source, &modules, record)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slum_exchange::setup::build_all_exchanges;
    use slum_exchange::ExchangeKind;
    use slum_websim::build::WebBuilder;

    #[test]
    fn parallel_crawl_covers_all_nine_exchanges() {
        let mut b = WebBuilder::new(130);
        let mut exchanges = build_all_exchanges(&mut b, 0.02, 20_000);
        let web = b.finish();
        let (store, stats, _) =
            crawl_all_resilient(&web, &mut exchanges, 42, &CrawlFaultProfile::none(), |x| {
                match x.kind() {
                    ExchangeKind::AutoSurf => 60,
                    ExchangeKind::ManualSurf => 15,
                }
            });
        assert_eq!(stats.len(), 9);
        assert_eq!(store.len(), 5 * 60 + 4 * 15);
        assert_eq!(store.exchanges().len(), 9);
        for (name, s) in &stats {
            let expected = if name == "10KHits"
                || name == "ManyHits"
                || name == "Smiley Traffic"
                || name == "SendSurf"
                || name == "Otohits"
            {
                60
            } else {
                15
            };
            assert_eq!(s.pages, expected, "{name}");
        }
    }

    #[test]
    fn per_exchange_metrics_cover_all_nine() {
        let mut b = WebBuilder::new(132);
        let mut exchanges = build_all_exchanges(&mut b, 0.02, 10_000);
        let web = b.finish();
        let (_, stats, _) =
            crawl_all_resilient(&web, &mut exchanges, 7, &CrawlFaultProfile::none(), |_| 20);
        assert_eq!(stats.iter().map(|(_, s)| s.pages).sum::<u64>(), 9 * 20);
        let per_exchange: std::collections::BTreeSet<&str> =
            stats.iter().filter(|(_, s)| s.surf_steps > 0).map(|(name, _)| name.as_str()).collect();
        assert_eq!(per_exchange.len(), 9, "{per_exchange:?}");
    }

    #[test]
    fn parallel_crawl_is_deterministic() {
        let run = || {
            let mut b = WebBuilder::new(131);
            let mut exchanges = build_all_exchanges(&mut b, 0.02, 10_000);
            let web = b.finish();
            let (store, _, _) =
                crawl_all_resilient(&web, &mut exchanges, 99, &CrawlFaultProfile::none(), |_| 25);
            let mut urls: Vec<String> =
                store.records().iter().map(|r| format!("{}|{}", r.exchange, r.url)).collect();
            urls.sort();
            urls
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn inert_resilient_crawl_reports_clean_health() {
        let mut b = WebBuilder::new(133);
        let mut exchanges = build_all_exchanges(&mut b, 0.02, 10_000);
        let web = b.finish();
        let (store, stats, health) =
            crawl_all_resilient(&web, &mut exchanges, 5, &CrawlFaultProfile::none(), |_| 12);
        assert_eq!(store.len(), 9 * 12);
        assert_eq!(stats.len(), 9);
        assert_eq!(health.len(), 9);
        assert!(health.iter().all(CrawlHealth::is_clean));
        assert!(health.iter().all(|h| h.pages == 12));
    }

    #[test]
    fn faulted_crawl_degrades_but_balances_slots() {
        let mut b = WebBuilder::new(134);
        let mut exchanges = build_all_exchanges(&mut b, 0.02, 10_000);
        let web = b.finish();
        let (store, _, health) = crawl_all_resilient(
            &web,
            &mut exchanges,
            5,
            &CrawlFaultProfile::harsh(),
            |_| 40,
        );
        assert!(!health.iter().all(CrawlHealth::is_clean), "harsh profile must bite");
        for h in &health {
            assert_eq!(h.pages + h.lost_steps, 40, "{}", h.exchange);
        }
        assert_eq!(store.len() as u64, health.iter().map(|h| h.pages).sum::<u64>());
    }

    /// Checkpoint rounds with a JSON round-trip between every round
    /// reproduce the one-shot crawl bit-for-bit — for every segment
    /// budget, from one slot per round to one round for the whole
    /// crawl, under both inert and active profiles — and the final
    /// state's visits rebuild its records on a fresh web.
    #[test]
    fn segmented_rounds_with_serialization_match_one_shot() {
        let build = || {
            let mut b = WebBuilder::new(135);
            let exchanges = build_all_exchanges(&mut b, 0.02, 10_000);
            (b.finish(), exchanges)
        };
        for profile in [CrawlFaultProfile::none(), CrawlFaultProfile::default_profile()] {
            let one_shot = {
                let (web, mut exchanges) = build();
                let (store, stats, health) =
                    crawl_all_resilient(&web, &mut exchanges, 11, &profile, |_| 30);
                (store, stats, health)
            };

            for budget in [1u64, 7, 64, 10_000] {
                let (web, mut exchanges) = build();
                let outcome = CrawlPlan::new(11)
                    .fault_profile(profile.clone())
                    .segment_budget(budget)
                    .run_segmented::<_, _, String>(
                        &web,
                        &mut exchanges,
                        |_| 30,
                        &mut |round, state| {
                            // Round-trip the full state through the body
                            // format, as a checkpoint save + resume would:
                            // the decoded visits encode to the same body.
                            let body = state.to_body().map_err(|e| e.to_string())?;
                            let back = CrawlCheckpointState::from_body(round, &body)
                                .map_err(|(l, d)| format!("line {l}: {d}"))?;
                            assert_eq!(back.to_body().map_err(|e| e.to_string())?, body);
                            assert_eq!(back.records_total(), state.records_total());
                            Ok(())
                        },
                    )
                    .expect("round-trip must parse");
                assert!(outcome.finished);
                let body = outcome.state.to_body().unwrap();
                let decoded = CrawlCheckpointState::from_body(outcome.state.round, &body).unwrap();
                let (fresh_web, fresh_exchanges) = build();
                let rebuilt = replay_restored_loads(&fresh_web, &fresh_exchanges, &decoded);
                assert_eq!(rebuilt, outcome.state, "budget {budget}: rebuilt records differ");
                let (store, stats, health) = outcome.state.finish();
                let label = format!("profile {} budget {budget}", profile.name);
                assert_eq!(store, one_shot.0, "{label}");
                assert_eq!(stats, one_shot.1, "{label}");
                assert_eq!(health, one_shot.2, "{label}");
            }
        }
    }

    /// Boxed trait-object sources crawl bit-identically to the concrete
    /// exchanges — the dispatch the substrate layer relies on.
    #[test]
    fn boxed_sources_crawl_identically_to_concrete() {
        let concrete = {
            let mut b = WebBuilder::new(138);
            let mut exchanges = build_all_exchanges(&mut b, 0.02, 10_000);
            let web = b.finish();
            let (store, _, _) =
                crawl_all_resilient(&web, &mut exchanges, 23, &CrawlFaultProfile::none(), |_| 20);
            store
        };
        let mut b = WebBuilder::new(138);
        let mut boxed: Vec<Box<dyn TrafficSource + Send>> = build_all_exchanges(&mut b, 0.02, 10_000)
            .into_iter()
            .map(|x| Box::new(x) as Box<dyn TrafficSource + Send>)
            .collect();
        let web = b.finish();
        let (store, _, _) =
            crawl_all_resilient(&web, &mut boxed, 23, &CrawlFaultProfile::none(), |_| 20);
        assert_eq!(store, concrete);
    }

    /// A kill/resume cycle rebuilds the web from seed, which would
    /// silently drop the shortener hits the pre-kill crawl visits
    /// accumulated; [`replay_restored_loads`] reapplies them, so the
    /// Table IV hit counts match an uninterrupted crawl (regression for
    /// the ±1 `short_hits` divergence under repeated preemption).
    #[test]
    fn replayed_loads_restore_shortener_hits_after_web_rebuild() {
        use rand::rngs::StdRng;
        use slum_exchange::SurfStep;
        use slum_websim::{ContentCategory, Tld, Url};

        struct ShortLoop {
            url: Url,
        }
        impl TrafficSource for ShortLoop {
            fn name(&self) -> &str {
                "ShortLoop"
            }
            fn kind(&self) -> ExchangeKind {
                ExchangeKind::AutoSurf
            }
            fn min_surf_secs(&self) -> u32 {
                1
            }
            fn next_step(&mut self, _t: u64, _rng: &mut StdRng) -> SurfStep {
                SurfStep {
                    url: self.url.clone(),
                    min_surf_secs: 1,
                    captcha: None,
                    campaign_boosted: false,
                }
            }
            fn captcha_nonce(&self) -> u64 {
                0
            }
            fn restore_captcha_nonce(&mut self, _nonce: u64) {}
        }

        let build = || {
            let mut b = WebBuilder::new(140);
            let spec = b.shortened_site(Tld::Com, ContentCategory::Business);
            (b.finish(), spec.url)
        };
        let hits_of = |web: &SyntheticWeb, short: &Url| {
            web.shorteners()
                .service(short.host())
                .expect("shortener host")
                .stats(short.path().trim_start_matches('/'))
                .expect("registered code")
                .hits
        };
        let plan = || CrawlPlan::new(7).segment_budget(4);
        let run = |web: &SyntheticWeb,
                   sources: &mut [ShortLoop],
                   plan: CrawlPlan,
                   saved: &mut Option<CrawlCheckpointState>| {
            plan.run_segmented::<_, _, String>(web, sources, |_| 8, &mut |_, state| {
                *saved = Some(state.clone());
                Ok(())
            })
            .expect("crawl runs")
        };

        // One-shot reference: all 8 visits land on a single web.
        let (web, short) = build();
        let mut sources = [ShortLoop { url: short.clone() }];
        let mut sink = None;
        let one_shot = run(&web, &mut sources, plan(), &mut sink);
        assert!(one_shot.finished);
        let want = hits_of(&web, &short);

        // Crash after round 1: the first 4 visits' hits die with web1.
        let (web1, short) = build();
        let mut sources = [ShortLoop { url: short.clone() }];
        let mut saved = None;
        let killed = run(&web1, &mut sources, plan().stop_after_round(1), &mut saved);
        assert!(!killed.finished);
        drop(web1);

        // Resume on a rebuilt web from the saved body: replay rebuilds
        // the records and reconstructs the lost hits.
        let (web2, _) = build();
        let saved = saved.expect("checkpoint saved");
        let state =
            CrawlCheckpointState::from_body(saved.round, &saved.to_body().unwrap()).unwrap();
        let restored = state.records_total();
        assert!(restored > 0, "round 1 must have crawled something");
        let mut sources = [ShortLoop { url: short.clone() }];
        let state = replay_restored_loads(&web2, &sources, &state);
        assert_eq!(state, saved, "the rebuilt records equal the crawled ones");
        let resumed = run(&web2, &mut sources, plan().resume(state), &mut sink);
        assert!(resumed.finished);
        assert_eq!(
            hits_of(&web2, &short),
            want,
            "replay must reconstruct the pre-kill shortener hits"
        );
    }

    #[test]
    fn from_body_rejects_malformed_input() {
        let no_cursor = CrawlCheckpointState::from_body(1, "{\"not\":\"a record\"}\n");
        let (line, detail) = no_cursor.unwrap_err();
        assert_eq!(line, 1);
        assert!(detail.contains("before any #cursor"), "{detail}");

        let empty = CrawlCheckpointState::from_body(1, "");
        assert!(empty.unwrap_err().1.contains("no cursors"));

        let bad_cursor = CrawlCheckpointState::from_body(1, "#cursor {broken\n");
        assert!(bad_cursor.unwrap_err().1.contains("bad cursor"));
    }
}
