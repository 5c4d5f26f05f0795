//! Deterministic observability for the transformation-based triage pipeline.
//!
//! Every stage of the pipeline — campaign execution, per-bug reduction,
//! deduplication, the worker pool — reports progress through an [`EventSink`]:
//! monotonic counters plus bucketed duration histograms, attributed to a
//! span-like [`Scope`]. Two sinks ship with the crate:
//!
//! - [`NoopSink`] (the default) discards everything. Callers gate emission on
//!   [`SinkHandle::enabled`], so an un-instrumented run pays one virtual call
//!   per *batch* of counters, not per event.
//! - [`RecordingSink`] aggregates events into a canonical, ordered snapshot
//!   ([`MetricsReport`]). In [`SinkMode::Deterministic`] the snapshot is
//!   byte-identical across thread counts: counters classified as
//!   [`Level::Volatile`] (pool scheduling, wall-clock artifacts) are dropped
//!   and duration samples are quantized to zero, mirroring the WAL merge
//!   discipline that makes the pipeline report itself thread-invariant.
//!
//! # Determinism contract
//!
//! Each [`Counter`] carries a [`Level`] that states how reproducible its value
//! is:
//!
//! - [`Level::Logical`] — a pure function of the campaign inputs. Identical
//!   across thread counts, and for every scope a resumed run re-executes the
//!   value equals the fresh-run value (journal-replayed probe prefixes count
//!   as if they had run live). Scopes recovered wholesale from the journal
//!   emit nothing — resume-invariant *totals* belong in the pipeline
//!   report's metrics section, which recomputes them from journaled state.
//! - [`Level::Engine`] — identical across thread counts on a fresh run, but
//!   shrinks on resume even for re-executed scopes, because replayed or
//!   recovered work skips live emission (cache and memo traffic, live probe
//!   counts, suffix-only WAL appends, dedup verdict reuse).
//! - [`Level::Volatile`] — scheduling- or wall-clock-dependent (pool task
//!   counts, watchdog timeouts, raw durations). Excluded from deterministic
//!   snapshots.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

/// How reproducible a counter's value is. See the crate-level determinism
/// contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Pure function of campaign inputs: thread-count-invariant, and equal
    /// to the fresh-run value for every scope a resumed run re-executes.
    Logical,
    /// Thread-count-invariant on a fresh run; shrinks on resume.
    Engine,
    /// Scheduling- or wall-clock-dependent; dropped in deterministic mode.
    Volatile,
}

/// Every counter and duration series the pipeline can report.
///
/// Names returned by [`Counter::name`] are stable identifiers: they appear in
/// metrics JSON files and golden tests, so renaming one is a format change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    // --- reduction search (logical) ---
    /// Interestingness queries issued by the delta-debugging loop
    /// (replayed, memoized, and live probes all count).
    TestsRun,
    /// Transformation chunks removed by the back-to-front halving loop.
    ChunksRemoved,
    /// Instructions removed by the added-function payload shrinker.
    PayloadInstructionsRemoved,
    /// Probe invocations that faulted (panic or watchdog timeout).
    ProbeFaults,
    /// Queries abandoned after exhausting poison retries.
    PoisonedQueries,
    // --- engine internals (engine) ---
    /// Prefix-cache lookups performed while materializing candidates.
    CacheLookups,
    /// Lookups that reused at least one cached transition.
    CacheHits,
    /// Transformations actually applied during materialization.
    CacheApplications,
    /// Transformation applications avoided via cached prefixes.
    CacheSaved,
    /// Cache entries evicted by the LRU budget.
    CacheEvictions,
    /// Materializations that were never followed by a journaled probe
    /// (mask-filtered shrink candidates and budget-exhausted walks) — the
    /// audited remainder of `cache_lookups - tests_run`.
    CacheUnprobedLookups,
    /// Interestingness queries answered by the verdict memo.
    MemoHits,
    /// Probes that reached the live target (neither replayed nor memoized).
    LiveProbes,
    // --- campaign executor (logical) ---
    /// Target incidents recorded in the error ledger.
    Incidents,
    /// Retries spent recovering transient target failures.
    Retries,
    /// Targets quarantined after persistent failures.
    QuarantinedTargets,
    /// Campaign tests that ran to completion.
    TestsCompleted,
    /// Tests skipped because their target was quarantined.
    SkippedByQuarantine,
    // --- pipeline ---
    /// Write-ahead-log records emitted this run (excludes replayed prefix,
    /// so engine-level: a resumed run appends only the suffix).
    WalRecords,
    /// Bugs that went through the reduction stage (including recovered ones).
    BugsTriaged,
    // --- dedup ---
    /// Transformation-type sets observed by the deduplicator.
    DedupSetsObserved,
    /// Observed sets that were empty after supporting-type filtering.
    DedupEmptySets,
    /// Distinct supporting transformation kinds excluded from sets
    /// (engine-level in the pipeline: only freshly reduced bugs emit it).
    DedupSupportingExcluded,
    /// Sets recommended for manual inspection (Figure 6 greedy cover;
    /// engine-level in the pipeline: a recovered verdict emits nothing).
    DedupKept,
    /// Memo-table consultations made by the pass-prefix bisector
    /// (engine-level: memo sharing across findings changes the count).
    DedupBisectLookups,
    /// Pipeline-prefix probes the bisector actually compiled and executed
    /// (engine-level: every memo hit avoids one).
    DedupBisectProbes,
    /// Bisector memo consultations answered from the memo table
    /// (engine-level: `probes + memo_hits == lookups` always holds).
    DedupBisectMemoHits,
    // --- interpreter / render grid ---
    /// Interpreter steps retired (block entries plus non-phi instructions).
    InterpInstructionsRetired,
    /// Fragments fully executed by a render grid (the row-major prefix
    /// before the first fault, so the count is thread-count independent).
    FragmentsRendered,
    /// Modules pre-decoded into a fast-engine [`CompiledModule`] form
    /// (engine-level: caching changes how often decode runs).
    ModulesDecoded,
    /// Render requests served from an already-decoded module (engine-level:
    /// a cold cache decodes instead of reusing).
    DecodeReuses,
    // --- triage daemon ---
    /// Jobs accepted into the daemon's admission queue.
    JobsAdmitted,
    /// Jobs that reached a terminal state (finished or quarantined).
    JobsCompleted,
    /// Shard deaths answered by a restart-with-resume (engine-level: the
    /// count follows the fault schedule, not the logical workload).
    ShardRestarts,
    /// Journal records replayed while resuming jobs after shard deaths
    /// (engine-level: an uninterrupted run replays nothing).
    ResumeReplays,
    /// Jobs quarantined by the circuit breaker after repeatedly killing
    /// their shard (engine-level: follows the fault schedule).
    JobsQuarantined,
    // --- durable cross-job state ---
    /// Bugs answered from the cross-job signature store without a new
    /// reduction (engine-level: depends on what earlier jobs committed).
    DedupStoreHits,
    /// Job commits durably appended to the state store's WAL (engine-level:
    /// only signature-contributing jobs append a record).
    StateCommits,
    /// Job commits the state store failed to make durable (engine-level:
    /// follows the injected storage-fault schedule).
    StateCommitFailures,
    /// Snapshot-and-truncate compactions of the state store's WAL.
    StateCompactions,
    /// WAL records folded in while recovering the state store at startup
    /// (engine-level: an uninterrupted, freshly compacted store replays
    /// nothing).
    StateRecoveredRecords,
    // --- shared prefix cache (volatile: contents depend on the timing of
    // concurrent reducers, even though reduced outputs do not) ---
    /// Materializations served by a shared-cache session.
    SharedCacheLookups,
    /// Shared-cache lookups that reused at least one cached transition.
    SharedCacheHits,
    /// Transformations applied while materializing through the shared cache.
    SharedCacheApplications,
    /// Transformation applications avoided via shared cached transitions.
    SharedCacheSaved,
    /// Transition edges admitted into a shared-cache shard.
    SharedCacheInsertions,
    /// Transition edges evicted by a shard's byte budget.
    SharedCacheEvictions,
    /// Insertions refused outright (entry larger than the shard budget).
    SharedCacheRejected,
    /// Bytes resident in a shard at flush time (gauge reported as a count).
    SharedCacheResidentBytes,
    /// High-water mark of resident bytes in a shard.
    SharedCachePeakBytes,
    // --- scheduling / wall clock (volatile) ---
    /// Jobs terminated because their wall-clock deadline elapsed.
    JobsDeadlineExceeded,
    /// Jobs rejected with an `Overloaded` reply by admission control.
    JobsShed,
    /// Duration series: wall time from job admission to terminal state.
    JobLatencyNanos,
    /// Jobs submitted to a worker pool.
    PoolTasks,
    /// Probes killed by the watchdog deadline.
    WatchdogTimeouts,
    /// Duration series: wall time of a live probe.
    ProbeNanos,
    /// Duration series: wall time of one bug's reduction.
    ReductionNanos,
    /// Duration series: wall time of one campaign batch.
    CampaignBatchNanos,
}

impl Counter {
    /// Stable snake_case identifier used in metrics JSON and golden files.
    pub fn name(self) -> &'static str {
        match self {
            Counter::TestsRun => "tests_run",
            Counter::ChunksRemoved => "chunks_removed",
            Counter::PayloadInstructionsRemoved => "payload_instructions_removed",
            Counter::ProbeFaults => "probe_faults",
            Counter::PoisonedQueries => "poisoned_queries",
            Counter::CacheLookups => "cache_lookups",
            Counter::CacheHits => "cache_hits",
            Counter::CacheApplications => "cache_applications",
            Counter::CacheSaved => "cache_saved",
            Counter::CacheEvictions => "cache_evictions",
            Counter::CacheUnprobedLookups => "cache_unprobed_lookups",
            Counter::MemoHits => "memo_hits",
            Counter::LiveProbes => "live_probes",
            Counter::Incidents => "incidents",
            Counter::Retries => "retries",
            Counter::QuarantinedTargets => "quarantined_targets",
            Counter::TestsCompleted => "tests_completed",
            Counter::SkippedByQuarantine => "skipped_by_quarantine",
            Counter::WalRecords => "wal_records",
            Counter::BugsTriaged => "bugs_triaged",
            Counter::DedupSetsObserved => "dedup_sets_observed",
            Counter::DedupEmptySets => "dedup_empty_sets",
            Counter::DedupSupportingExcluded => "dedup_supporting_excluded",
            Counter::DedupKept => "dedup_kept",
            Counter::DedupBisectLookups => "dedup_bisect_lookups",
            Counter::DedupBisectProbes => "dedup_bisect_probes",
            Counter::DedupBisectMemoHits => "dedup_bisect_memo_hits",
            Counter::InterpInstructionsRetired => "interp_instructions_retired",
            Counter::FragmentsRendered => "fragments_rendered",
            Counter::ModulesDecoded => "modules_decoded",
            Counter::DecodeReuses => "decode_reuses",
            Counter::JobsAdmitted => "jobs_admitted",
            Counter::JobsCompleted => "jobs_completed",
            Counter::ShardRestarts => "shard_restarts",
            Counter::ResumeReplays => "resume_replays",
            Counter::JobsQuarantined => "jobs_quarantined",
            Counter::DedupStoreHits => "dedup_store_hits",
            Counter::StateCommits => "state_commits",
            Counter::StateCommitFailures => "state_commit_failures",
            Counter::StateCompactions => "state_compactions",
            Counter::StateRecoveredRecords => "state_recovered_records",
            Counter::SharedCacheLookups => "shared_cache_lookups",
            Counter::SharedCacheHits => "shared_cache_hits",
            Counter::SharedCacheApplications => "shared_cache_applications",
            Counter::SharedCacheSaved => "shared_cache_saved",
            Counter::SharedCacheInsertions => "shared_cache_insertions",
            Counter::SharedCacheEvictions => "shared_cache_evictions",
            Counter::SharedCacheRejected => "shared_cache_rejected",
            Counter::SharedCacheResidentBytes => "shared_cache_resident_bytes",
            Counter::SharedCachePeakBytes => "shared_cache_peak_bytes",
            Counter::JobsDeadlineExceeded => "jobs_deadline_exceeded",
            Counter::JobsShed => "jobs_shed",
            Counter::JobLatencyNanos => "job_latency_nanos",
            Counter::PoolTasks => "pool_tasks",
            Counter::WatchdogTimeouts => "watchdog_timeouts",
            Counter::ProbeNanos => "probe_nanos",
            Counter::ReductionNanos => "reduction_nanos",
            Counter::CampaignBatchNanos => "campaign_batch_nanos",
        }
    }

    /// The determinism level of this counter's value.
    pub fn level(self) -> Level {
        match self {
            Counter::TestsRun
            | Counter::ChunksRemoved
            | Counter::PayloadInstructionsRemoved
            | Counter::ProbeFaults
            | Counter::PoisonedQueries
            | Counter::Incidents
            | Counter::Retries
            | Counter::QuarantinedTargets
            | Counter::TestsCompleted
            | Counter::SkippedByQuarantine
            | Counter::BugsTriaged
            | Counter::DedupSetsObserved
            | Counter::InterpInstructionsRetired
            | Counter::FragmentsRendered
            | Counter::JobsAdmitted
            | Counter::JobsCompleted
            | Counter::DedupEmptySets => Level::Logical,
            Counter::WalRecords
            | Counter::ModulesDecoded
            | Counter::DecodeReuses
            | Counter::DedupSupportingExcluded
            | Counter::DedupKept
            | Counter::DedupBisectLookups
            | Counter::DedupBisectProbes
            | Counter::DedupBisectMemoHits
            | Counter::CacheLookups
            | Counter::CacheHits
            | Counter::CacheApplications
            | Counter::CacheSaved
            | Counter::CacheEvictions
            | Counter::CacheUnprobedLookups
            | Counter::MemoHits
            | Counter::LiveProbes
            | Counter::ShardRestarts
            | Counter::ResumeReplays
            | Counter::DedupStoreHits
            | Counter::StateCommits
            | Counter::StateCommitFailures
            | Counter::StateCompactions
            | Counter::StateRecoveredRecords
            | Counter::JobsQuarantined => Level::Engine,
            Counter::SharedCacheLookups
            | Counter::SharedCacheHits
            | Counter::SharedCacheApplications
            | Counter::SharedCacheSaved
            | Counter::SharedCacheInsertions
            | Counter::SharedCacheEvictions
            | Counter::SharedCacheRejected
            | Counter::SharedCacheResidentBytes
            | Counter::SharedCachePeakBytes
            | Counter::PoolTasks
            | Counter::JobsDeadlineExceeded
            | Counter::JobsShed
            | Counter::JobLatencyNanos
            | Counter::WatchdogTimeouts
            | Counter::ProbeNanos
            | Counter::ReductionNanos
            | Counter::CampaignBatchNanos => Level::Volatile,
        }
    }
}

/// The span an event is attributed to. The derived ordering is the canonical
/// report order: pipeline, campaign, per-bug reductions (by WAL bug index),
/// dedup, pool — the same bug-major order the WAL merge discipline uses, so
/// aggregated snapshots never depend on event arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Scope {
    /// Whole-pipeline bookkeeping (WAL records, bug totals).
    #[default]
    Pipeline,
    /// The resilient campaign executor.
    Campaign,
    /// One bug's reduction, keyed by its WAL bug index.
    Reduction(usize),
    /// The transformation-type-set deduplicator.
    Dedup,
    /// The fast interpreter's render-grid executor.
    Render,
    /// Worker-pool scheduling.
    Pool,
    /// The triage daemon's supervisor and admission control.
    Server,
    /// One shard of the shared prefix cache, keyed by shard index.
    CacheShard(usize),
}

impl Scope {
    /// Canonical rendered name, zero-padded so lexical order matches
    /// [`Ord`] order for reduction scopes.
    pub fn render(self) -> String {
        match self {
            Scope::Pipeline => "pipeline".to_string(),
            Scope::Campaign => "campaign".to_string(),
            Scope::Reduction(i) => format!("reduction/{i:04}"),
            Scope::Dedup => "dedup".to_string(),
            Scope::Render => "render".to_string(),
            Scope::Pool => "pool".to_string(),
            Scope::Server => "server".to_string(),
            Scope::CacheShard(i) => format!("cache-shard/{i:04}"),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Receiver for pipeline events. Implementations must be thread-safe: the
/// parallel reduction stage emits from pool workers.
pub trait EventSink: Send + Sync {
    /// Whether emission is worth the caller's time. Hot paths batch their
    /// counter deltas and skip the batch entirely when this is `false`.
    fn enabled(&self) -> bool;
    /// Add `delta` to `counter` within `scope`.
    fn count(&self, scope: Scope, counter: Counter, delta: u64);
    /// Record one duration sample (in nanoseconds) for `counter` in `scope`.
    fn duration(&self, scope: Scope, counter: Counter, nanos: u64);
}

/// The zero-cost default sink: reports itself disabled and discards events.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }
    fn count(&self, _scope: Scope, _counter: Counter, _delta: u64) {}
    fn duration(&self, _scope: Scope, _counter: Counter, _nanos: u64) {}
}

/// Cheaply clonable handle threaded through every crate in the workspace.
///
/// The handle forwards to its sink only when the sink is enabled and the
/// delta is non-zero, so instrumented call sites stay branch-cheap under the
/// default [`NoopSink`].
#[derive(Clone)]
pub struct SinkHandle(Arc<dyn EventSink>);

impl SinkHandle {
    /// Wrap a shared sink.
    pub fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkHandle(sink)
    }

    /// The default disabled handle.
    pub fn noop() -> Self {
        SinkHandle(Arc::new(NoopSink))
    }

    /// Whether the underlying sink wants events.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Add `delta` to `counter` in `scope` (no-op when disabled or zero).
    pub fn count(&self, scope: Scope, counter: Counter, delta: u64) {
        if delta > 0 && self.0.enabled() {
            self.0.count(scope, counter, delta);
        }
    }

    /// Record a duration sample (no-op when disabled).
    pub fn duration(&self, scope: Scope, counter: Counter, nanos: u64) {
        if self.0.enabled() {
            self.0.duration(scope, counter, nanos);
        }
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::noop()
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SinkHandle").field(&self.0.enabled()).finish()
    }
}

/// What a [`RecordingSink`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// Keep [`Level::Logical`] and [`Level::Engine`] counters; drop
    /// [`Level::Volatile`] counters and quantize every duration sample to
    /// zero. Snapshots are byte-identical across thread counts.
    Deterministic,
    /// Keep everything, including raw wall-clock durations.
    Full,
}

/// Power-of-two bucketed duration histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct HistogramState {
    count: u64,
    total_nanos: u64,
    /// bucket floor (0 or a power of two) -> sample count
    buckets: BTreeMap<u64, u64>,
}

impl HistogramState {
    fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        let floor = if nanos == 0 {
            0
        } else {
            1u64 << (63 - nanos.leading_zeros())
        };
        *self.buckets.entry(floor).or_insert(0) += 1;
    }
}

#[derive(Debug, Clone, Default)]
struct ScopeState {
    counters: BTreeMap<&'static str, u64>,
    durations: BTreeMap<&'static str, HistogramState>,
}

/// An [`EventSink`] that aggregates events into a canonical snapshot.
///
/// Aggregation is keyed by [`Scope`] (a `BTreeMap`), so the snapshot is a
/// function of the event *multiset*, not of arrival order — exactly the
/// property the parallel reduction stage needs to match the serial stage.
pub struct RecordingSink {
    mode: SinkMode,
    state: Mutex<BTreeMap<Scope, ScopeState>>,
}

impl RecordingSink {
    /// A sink whose snapshots are byte-identical across thread counts.
    pub fn deterministic() -> Self {
        RecordingSink {
            mode: SinkMode::Deterministic,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// A sink that keeps volatile counters and raw durations.
    pub fn full() -> Self {
        RecordingSink {
            mode: SinkMode::Full,
            state: Mutex::new(BTreeMap::new()),
        }
    }

    /// The recording mode.
    pub fn mode(&self) -> SinkMode {
        self.mode
    }

    /// Snapshot the aggregated state in canonical order.
    pub fn snapshot(&self) -> MetricsReport {
        let state = self.state.lock().expect("metrics state poisoned");
        MetricsReport {
            mode: match self.mode {
                SinkMode::Deterministic => "deterministic".to_string(),
                SinkMode::Full => "full".to_string(),
            },
            scopes: state
                .iter()
                .map(|(scope, s)| ScopeMetrics {
                    scope: scope.render(),
                    counters: s
                        .counters
                        .iter()
                        .map(|(name, value)| CounterValue {
                            name: name.to_string(),
                            value: *value,
                        })
                        .collect(),
                    durations: s
                        .durations
                        .iter()
                        .map(|(name, h)| DurationHistogram {
                            name: name.to_string(),
                            count: h.count,
                            total_nanos: h.total_nanos,
                            buckets: h
                                .buckets
                                .iter()
                                .map(|(floor, count)| HistogramBucket {
                                    floor_nanos: *floor,
                                    count: *count,
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

impl fmt::Debug for RecordingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordingSink").field("mode", &self.mode).finish_non_exhaustive()
    }
}

impl EventSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn count(&self, scope: Scope, counter: Counter, delta: u64) {
        if self.mode == SinkMode::Deterministic && counter.level() == Level::Volatile {
            return;
        }
        let mut state = self.state.lock().expect("metrics state poisoned");
        *state
            .entry(scope)
            .or_default()
            .counters
            .entry(counter.name())
            .or_insert(0) += delta;
    }

    fn duration(&self, scope: Scope, counter: Counter, nanos: u64) {
        let sample = match self.mode {
            SinkMode::Deterministic => 0,
            SinkMode::Full => nanos,
        };
        let mut state = self.state.lock().expect("metrics state poisoned");
        state
            .entry(scope)
            .or_default()
            .durations
            .entry(counter.name())
            .or_default()
            .record(sample);
    }
}

/// One bucket of a [`DurationHistogram`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket (0 or a power of two), in ns.
    pub floor_nanos: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// Snapshot of one duration series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurationHistogram {
    /// Stable series name (a [`Counter::name`]).
    pub name: String,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds (zero in deterministic mode).
    pub total_nanos: u64,
    /// Power-of-two buckets in ascending floor order.
    pub buckets: Vec<HistogramBucket>,
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterValue {
    /// Stable counter name (a [`Counter::name`]).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// All metrics recorded within one [`Scope`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScopeMetrics {
    /// Rendered scope name ([`Scope::render`]).
    pub scope: String,
    /// Counters in ascending name order.
    pub counters: Vec<CounterValue>,
    /// Duration histograms in ascending name order.
    pub durations: Vec<DurationHistogram>,
}

/// A canonical, serializable snapshot of a [`RecordingSink`].
///
/// Scopes appear in canonical [`Scope`] order and entries within a scope in
/// ascending name order, so two snapshots built from the same event multiset
/// serialize to identical bytes regardless of thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Recording mode: `"deterministic"` or `"full"`.
    pub mode: String,
    /// Per-scope metrics in canonical scope order.
    pub scopes: Vec<ScopeMetrics>,
}

impl MetricsReport {
    /// Pretty-printed JSON rendering (stable across runs in deterministic
    /// mode).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics report serializes")
    }

    /// Parse a report back from [`MetricsReport::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid metrics report: {e:?}"))
    }

    /// The value of `counter` in the scope rendered as `scope`, or 0.
    pub fn counter(&self, scope: &str, counter: Counter) -> u64 {
        self.scopes
            .iter()
            .filter(|s| s.scope == scope)
            .flat_map(|s| s.counters.iter())
            .filter(|c| c.name == counter.name())
            .map(|c| c.value)
            .sum()
    }

    /// The value of `counter` summed over every scope.
    pub fn total(&self, counter: Counter) -> u64 {
        self.scopes
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|c| c.name == counter.name())
            .map(|c| c.value)
            .sum()
    }

    /// Sum of `counter` over all reduction scopes.
    pub fn reduction_total(&self, counter: Counter) -> u64 {
        self.scopes
            .iter()
            .filter(|s| s.scope.starts_with("reduction/"))
            .flat_map(|s| s.counters.iter())
            .filter(|c| c.name == counter.name())
            .map(|c| c.value)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled() {
        let handle = SinkHandle::noop();
        assert!(!handle.enabled());
        // Must be a no-op, not a panic.
        handle.count(Scope::Pipeline, Counter::TestsRun, 5);
        handle.duration(Scope::Pipeline, Counter::ProbeNanos, 10);
    }

    #[test]
    fn handle_skips_zero_deltas() {
        let sink = Arc::new(RecordingSink::deterministic());
        let handle = SinkHandle::new(sink.clone());
        handle.count(Scope::Dedup, Counter::DedupKept, 0);
        assert!(sink.snapshot().scopes.is_empty());
    }

    #[test]
    fn deterministic_mode_drops_volatile_counters_and_quantizes_time() {
        let sink = RecordingSink::deterministic();
        sink.count(Scope::Pool, Counter::PoolTasks, 7);
        sink.count(Scope::Pipeline, Counter::WalRecords, 3);
        sink.duration(Scope::Reduction(0), Counter::ProbeNanos, 123_456);
        let snap = sink.snapshot();
        assert_eq!(snap.total(Counter::PoolTasks), 0);
        assert_eq!(snap.counter("pipeline", Counter::WalRecords), 3);
        let red = snap.scopes.iter().find(|s| s.scope == "reduction/0000").unwrap();
        assert_eq!(red.durations[0].count, 1);
        assert_eq!(red.durations[0].total_nanos, 0);
        assert_eq!(red.durations[0].buckets, vec![HistogramBucket { floor_nanos: 0, count: 1 }]);
    }

    #[test]
    fn full_mode_keeps_volatile_counters_and_buckets_by_power_of_two() {
        let sink = RecordingSink::full();
        sink.count(Scope::Pool, Counter::PoolTasks, 7);
        sink.duration(Scope::Pipeline, Counter::ProbeNanos, 0);
        sink.duration(Scope::Pipeline, Counter::ProbeNanos, 1);
        sink.duration(Scope::Pipeline, Counter::ProbeNanos, 5);
        sink.duration(Scope::Pipeline, Counter::ProbeNanos, 1024);
        sink.duration(Scope::Pipeline, Counter::ProbeNanos, 1500);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("pool", Counter::PoolTasks), 7);
        let hist = &snap.scopes.iter().find(|s| s.scope == "pipeline").unwrap().durations[0];
        assert_eq!(hist.count, 5);
        assert_eq!(hist.total_nanos, 2530);
        assert_eq!(
            hist.buckets,
            vec![
                HistogramBucket { floor_nanos: 0, count: 1 },
                HistogramBucket { floor_nanos: 1, count: 1 },
                HistogramBucket { floor_nanos: 4, count: 1 },
                HistogramBucket { floor_nanos: 1024, count: 2 },
            ]
        );
    }

    #[test]
    fn snapshot_order_is_arrival_independent() {
        let a = RecordingSink::deterministic();
        a.count(Scope::Reduction(2), Counter::TestsRun, 1);
        a.count(Scope::Reduction(0), Counter::TestsRun, 2);
        a.count(Scope::Campaign, Counter::Incidents, 3);
        a.count(Scope::Reduction(0), Counter::MemoHits, 4);

        let b = RecordingSink::deterministic();
        b.count(Scope::Reduction(0), Counter::MemoHits, 4);
        b.count(Scope::Campaign, Counter::Incidents, 3);
        b.count(Scope::Reduction(0), Counter::TestsRun, 1);
        b.count(Scope::Reduction(2), Counter::TestsRun, 1);
        b.count(Scope::Reduction(0), Counter::TestsRun, 1);

        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
        let names: Vec<String> = a.snapshot().scopes.into_iter().map(|s| s.scope).collect();
        assert_eq!(names, vec!["campaign", "reduction/0000", "reduction/0002"]);
    }

    #[test]
    fn scope_order_is_canonical() {
        let mut scopes = vec![
            Scope::Server,
            Scope::Pool,
            Scope::Render,
            Scope::Dedup,
            Scope::Reduction(11),
            Scope::Reduction(2),
            Scope::Campaign,
            Scope::Pipeline,
        ];
        scopes.sort();
        assert_eq!(
            scopes,
            vec![
                Scope::Pipeline,
                Scope::Campaign,
                Scope::Reduction(2),
                Scope::Reduction(11),
                Scope::Dedup,
                Scope::Render,
                Scope::Pool,
                Scope::Server,
            ]
        );
        // Zero-padded rendering keeps lexical order aligned with Ord order.
        assert_eq!(Scope::Reduction(2).render(), "reduction/0002");
        assert_eq!(Scope::CacheShard(3).render(), "cache-shard/0003");
        assert!(Scope::Server < Scope::CacheShard(0));
    }

    #[test]
    fn shared_cache_counters_are_volatile() {
        // The shared prefix cache's contents depend on concurrent reducer
        // timing; its counters must never reach a deterministic snapshot,
        // or the cross-thread-count metrics cmp in CI would flake.
        for c in [
            Counter::SharedCacheLookups,
            Counter::SharedCacheHits,
            Counter::SharedCacheApplications,
            Counter::SharedCacheSaved,
            Counter::SharedCacheInsertions,
            Counter::SharedCacheEvictions,
            Counter::SharedCacheRejected,
            Counter::SharedCacheResidentBytes,
            Counter::SharedCachePeakBytes,
        ] {
            assert_eq!(c.level(), Level::Volatile, "{}", c.name());
        }
        // The unprobed-lookup audit counter mirrors the private cache's
        // accounting, which is engine-deterministic on a fresh run.
        assert_eq!(Counter::CacheUnprobedLookups.level(), Level::Engine);
    }

    #[test]
    fn report_round_trips_through_json() {
        let sink = RecordingSink::full();
        sink.count(Scope::Pipeline, Counter::WalRecords, 9);
        sink.duration(Scope::Campaign, Counter::CampaignBatchNanos, 77);
        let report = sink.snapshot();
        let back = MetricsReport::from_json(&report.to_json()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn every_counter_has_a_unique_stable_name() {
        let all = [
            Counter::TestsRun,
            Counter::ChunksRemoved,
            Counter::PayloadInstructionsRemoved,
            Counter::ProbeFaults,
            Counter::PoisonedQueries,
            Counter::CacheLookups,
            Counter::CacheHits,
            Counter::CacheApplications,
            Counter::CacheSaved,
            Counter::CacheEvictions,
            Counter::CacheUnprobedLookups,
            Counter::MemoHits,
            Counter::LiveProbes,
            Counter::Incidents,
            Counter::Retries,
            Counter::QuarantinedTargets,
            Counter::TestsCompleted,
            Counter::SkippedByQuarantine,
            Counter::WalRecords,
            Counter::BugsTriaged,
            Counter::DedupSetsObserved,
            Counter::DedupEmptySets,
            Counter::DedupSupportingExcluded,
            Counter::DedupKept,
            Counter::DedupBisectLookups,
            Counter::DedupBisectProbes,
            Counter::DedupBisectMemoHits,
            Counter::InterpInstructionsRetired,
            Counter::FragmentsRendered,
            Counter::ModulesDecoded,
            Counter::DecodeReuses,
            Counter::JobsAdmitted,
            Counter::JobsCompleted,
            Counter::ShardRestarts,
            Counter::ResumeReplays,
            Counter::JobsQuarantined,
            Counter::DedupStoreHits,
            Counter::StateCommits,
            Counter::StateCommitFailures,
            Counter::StateCompactions,
            Counter::StateRecoveredRecords,
            Counter::SharedCacheLookups,
            Counter::SharedCacheHits,
            Counter::SharedCacheApplications,
            Counter::SharedCacheSaved,
            Counter::SharedCacheInsertions,
            Counter::SharedCacheEvictions,
            Counter::SharedCacheRejected,
            Counter::SharedCacheResidentBytes,
            Counter::SharedCachePeakBytes,
            Counter::JobsDeadlineExceeded,
            Counter::JobsShed,
            Counter::JobLatencyNanos,
            Counter::PoolTasks,
            Counter::WatchdogTimeouts,
            Counter::ProbeNanos,
            Counter::ReductionNanos,
            Counter::CampaignBatchNanos,
        ];
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
