//! # trx-reducer
//!
//! Test-case reduction "almost for free" (§2.1, §3.4): delta debugging over
//! the *transformation sequence* rather than over program text.
//!
//! Because every transformation is semantics-preserving and sequence
//! application skips transformations whose preconditions fail
//! (Definition 2.5), any subsequence of a bug-inducing sequence yields a
//! valid, UB-free variant — no external sanitizers or oracles are needed.
//! The reducer searches for a **1-minimal** subsequence: one that still
//! triggers the bug, such that removing any single transformation stops it
//! triggering.
//!
//! The algorithm is the one described in §3.4: a chunk size `c` starts at
//! `⌊n/2⌋`; the sequence is divided into chunks of size `c` *from the back*
//! (the leading chunk may be smaller); each chunk is tentatively removed;
//! when no chunk of size `c` can be removed, `c` is halved; reduction stops
//! when no chunk of size 1 can be removed.
//!
//! After delta debugging, [`Reducer::reduce`] optionally shrinks the bodies
//! of any remaining `AddFunction` payloads — the analogue of spirv-fuzz's
//! final spirv-reduce pass, "merely an optimization" per §3.4.
//!
//! For *flaky* oracles — crashes that only reproduce some of the time, a
//! routine hazard in GPU-driver testing — [`ReducerOptions::votes`] turns
//! every interestingness query into a `k`-of-`n` vote. Each vote invokes
//! the oracle once and counts against [`ReducerOptions::max_tests`], so
//! voting trades test budget for robustness.
//!
//! ## The prefix-memoized engine
//!
//! A naive implementation pays O(|candidate|) transformation applications
//! per probe. This engine threads every candidate materialization through a
//! [`trx_core::PrefixCache`] of context snapshots keyed by
//! applied-transformation prefix ([`ReducerOptions::prefix_cache_budget`]),
//! so consecutive candidates replay only the part of the sequence the
//! previous probes have not already computed. The cache is behaviorally
//! invisible: verdicts, the [`ReductionLog`], and the reduced sequence are
//! byte-identical to the uncached engine at every budget (including 0,
//! which disables it).
//!
//! With [`Reducer::with_shared_cache`], the per-reduction cache is replaced
//! by a session onto a [`trx_core::SharedPrefixCache`] shared across all of
//! a run's concurrent reductions: sharded, byte-budgeted, and still
//! behaviorally invisible.
//!
//! **Verdict memoization** ([`ReducerOptions::memoize_verdicts`]) is
//! opt-in: probe verdicts are memoized by the candidate context's
//! structural fingerprint, so candidates that *normalize* to an
//! already-probed context are answered without invoking the oracle. A memo
//! hit still counts against [`ReducerOptions::max_tests`] and is journaled
//! as an ordinary [`ProbeRecord`], so `reduce_journaled` resume stays
//! bit-identical; the memo itself is rebuilt deterministically from the
//! replayed records. Off by default because it changes how often a *flaky*
//! oracle is consulted (it is an exact optimization only for deterministic
//! oracles), and it is only active for 1-of-1 voting.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use trx_core::{
    context_fingerprint, transformation_id, Context, Materialized, PrefixCache, PrefixCacheStats,
    SharedCacheSession, SharedPrefixCache, Transformation,
};
use trx_observe::{Counter, Scope, SinkHandle};

/// Statistics about a reduction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionStats {
    /// Number of interestingness-test invocations.
    pub tests_run: usize,
    /// Number of successful chunk removals.
    pub chunks_removed: usize,
    /// Number of instructions removed from `AddFunction` payloads by the
    /// shrink phase.
    pub payload_instructions_removed: usize,
    /// Number of probe invocations that faulted instead of answering.
    pub probe_faults: usize,
    /// Number of interestingness queries abandoned because the probe kept
    /// faulting on the candidate (poison-test quarantine).
    pub poisoned_queries: usize,
}

/// A fault raised by an interestingness probe itself — the worker crashed,
/// hung past its watchdog deadline, or otherwise failed to produce a
/// verdict. Distinct from the probe *answering* "not interesting".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeFault(pub String);

impl fmt::Display for ProbeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interestingness probe faulted: {}", self.0)
    }
}

impl Error for ProbeFault {}

/// One journaled probe invocation: the unit of the reducer's write-ahead
/// attempt log. The reduction search is a pure function of the record
/// stream, so replaying a log prefix resumes a crashed reduction on the
/// exact path the uninterrupted run would have taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeRecord {
    /// The probe ran to completion and answered.
    Answered(bool),
    /// The probe itself faulted; no verdict was produced.
    Faulted,
}

/// The journaled attempt log of a reduction: every probe invocation, in
/// order. Serialise records as they are emitted (see
/// [`Reducer::reduce_journaled`]'s `on_record`) and replay them after a
/// crash to resume deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionLog {
    /// The records, in invocation order.
    pub records: Vec<ProbeRecord>,
}

impl ReductionLog {
    /// Creates an empty log (a fresh, non-resumed reduction).
    #[must_use]
    pub fn new() -> Self {
        ReductionLog::default()
    }

    /// Number of journaled probe invocations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The outcome of a journaled reduction: the reduction itself plus the
/// complete attempt log (replayed prefix and live suffix).
#[derive(Debug, Clone)]
pub struct JournaledReduction {
    /// The reduction result.
    pub reduction: Reduction,
    /// The full attempt log; persisting it makes the reduction resumable
    /// from any prefix.
    pub log: ReductionLog,
}

/// Work counters for the prefix-memoized engine itself: how much the
/// caching layers saved. Unlike [`ReductionStats`] (which is part of the
/// journaled pipeline schema and describes the *search*), these describe
/// the *machinery* and may differ between cache configurations whose runs
/// are otherwise byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Prefix-cache counters (applications performed vs. saved, hit rate).
    pub cache: PrefixCacheStats,
    /// Interestingness queries answered from the verdict memo without
    /// invoking the oracle.
    pub memo_hits: u64,
    /// Cache lookups whose materialization was never journaled as a probe:
    /// shrink candidates whose payload failed to re-apply, and queries
    /// abandoned by budget exhaustion before casting a vote. For an
    /// unseeded, 1-of-1,
    /// deterministic run the books balance exactly:
    /// `cache.lookups == probes_journaled + unprobed_lookups`
    /// (a seeded run journals one extra initial record with no lookup).
    pub unprobed_lookups: u64,
}

/// The outcome of a reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The 1-minimal transformation subsequence.
    pub sequence: Vec<Transformation>,
    /// The reduced variant context (original plus `sequence`).
    pub context: Context,
    /// Counters describing the run.
    pub stats: ReductionStats,
    /// Counters describing the engine's caching layers.
    pub engine: EngineStats,
}

/// Configuration for the reducer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReducerOptions {
    /// Whether to run the `AddFunction` payload shrink phase after delta
    /// debugging.
    pub shrink_added_functions: bool,
    /// Safety cap on interestingness-test invocations. Every *vote* counts
    /// against this cap.
    pub max_tests: usize,
    /// Votes (`n`) cast per interestingness query. With a flaky oracle —
    /// a crash that only reproduces some of the time — a single vote makes
    /// the reducer keep chunks whose removal failed to reproduce by bad
    /// luck. Each vote invokes the interestingness closure once.
    pub votes: u32,
    /// Votes (`k`) that must say "interesting" for the query to pass.
    /// Clamped to `1..=votes`. The default 1-of-1 is exact single-shot
    /// testing; for an oracle with reproduction probability `p`, `k`-of-`n`
    /// drives the per-query false-negative rate from `1 - p` down to
    /// `P[Binomial(n, p) < k]`.
    pub votes_required: u32,
    /// Consecutive probe faults within one interestingness query before the
    /// candidate is quarantined as a poison test: the query resolves to
    /// "not interesting" (conservatively keeping the chunk) and
    /// [`ReductionStats::poisoned_queries`] is bumped. Faulting probe runs
    /// count against [`ReducerOptions::max_tests`] but cast no vote.
    pub poison_retries: u32,
    /// Maximum number of context snapshots (transition edges) the
    /// [`trx_core::PrefixCache`] may hold while materializing candidates.
    /// 0 disables the cache: every probe replays its whole candidate from
    /// the original context — the serial reference behavior. The cache is
    /// behaviorally invisible at any budget; raising it only trades memory
    /// for fewer transformation applications.
    pub prefix_cache_budget: usize,
    /// Memoize probe verdicts by candidate-context fingerprint, answering
    /// repeat contexts without invoking the oracle. Memo hits still count
    /// against [`ReducerOptions::max_tests`] and are journaled, keeping
    /// resume bit-identical. Only active for 1-of-1 voting; off by default
    /// because with a *flaky* oracle it changes which probes actually run
    /// (it is an exact optimization only for deterministic oracles).
    pub memoize_verdicts: bool,
}

impl ReducerOptions {
    /// `k`-of-`n` voting with a strict majority: `k = n / 2 + 1`.
    #[must_use]
    pub fn with_majority_votes(mut self, n: u32) -> Self {
        let n = n.max(1);
        self.votes = n;
        self.votes_required = n / 2 + 1;
        self
    }

    /// Explicit `k`-of-`n` voting.
    #[must_use]
    pub fn with_votes(mut self, required: u32, total: u32) -> Self {
        self.votes = total.max(1);
        self.votes_required = required.clamp(1, self.votes);
        self
    }
}

impl Default for ReducerOptions {
    fn default() -> Self {
        ReducerOptions {
            shrink_added_functions: true,
            max_tests: 100_000,
            votes: 1,
            votes_required: 1,
            poison_retries: 3,
            prefix_cache_budget: 256,
            memoize_verdicts: false,
        }
    }
}

/// The transformation-sequence reducer.
#[derive(Debug, Clone, Default)]
pub struct Reducer {
    options: ReducerOptions,
    sink: SinkHandle,
    scope: Scope,
    shared_cache: Option<Arc<SharedPrefixCache>>,
}

impl Reducer {
    /// Creates a reducer with the given options.
    #[must_use]
    pub fn new(options: ReducerOptions) -> Self {
        Reducer {
            options,
            sink: SinkHandle::noop(),
            scope: Scope::Pipeline,
            shared_cache: None,
        }
    }

    /// Materializes candidates through `cache` — a [`SharedPrefixCache`]
    /// shared with other concurrent reductions of the same run — instead of
    /// a private per-reduction [`PrefixCache`].
    ///
    /// The shared cache is keyed by `(state fingerprint, transformation
    /// id)`, so reductions of different bugs only collide on genuinely
    /// identical prefixes, where sharing is exactly the point. Like the
    /// private cache it is behaviorally invisible: the journal, reduced
    /// sequence and search stats are byte-identical to a private-cache run
    /// for a deterministic probe; only [`EngineStats`] differ.
    /// [`ReducerOptions::prefix_cache_budget`] is ignored while a shared
    /// cache is attached (the shared byte budget governs instead).
    #[must_use]
    pub fn with_shared_cache(mut self, cache: Arc<SharedPrefixCache>) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    /// Routes this reducer's counters to `sink`, attributed to `scope`
    /// (typically [`Scope::Reduction`] keyed by the bug's WAL index).
    ///
    /// Search counters ([`ReductionStats`]) and engine counters
    /// ([`EngineStats`], including the prefix cache's) are emitted in
    /// batches, so the default noop sink costs one `enabled()` check per
    /// probe, not per transformation.
    #[must_use]
    pub fn with_sink(mut self, sink: SinkHandle, scope: Scope) -> Self {
        self.sink = sink;
        self.scope = scope;
        self
    }

    /// Reduces `sequence` against `original`, keeping subsequences for which
    /// `interesting` returns `true` on the resulting variant.
    ///
    /// `interesting` receives the variant context produced by applying a
    /// candidate subsequence to `original`. It must return `true` for the
    /// full initial sequence, or the input is returned unchanged.
    pub fn reduce(
        &self,
        original: &Context,
        sequence: &[Transformation],
        mut interesting: impl FnMut(&Context) -> bool,
    ) -> Reduction {
        self.reduce_journaled(
            original,
            sequence,
            &ReductionLog::new(),
            |ctx| Ok(interesting(ctx)),
            |_, _| {},
        )
        .reduction
    }

    /// The engine for this reducer's sink configuration.
    fn engine<'a, P, R>(
        &self,
        original: &'a Context,
        initial: Option<&'a Context>,
        prior: &'a ReductionLog,
        probe: P,
        on_record: R,
    ) -> Engine<'a, P, R>
    where
        P: FnMut(&Context) -> Result<bool, ProbeFault>,
        R: FnMut(usize, ProbeRecord),
    {
        Engine::new(
            self.options,
            self.shared_cache.clone(),
            self.sink.clone(),
            self.scope,
            original,
            initial,
            prior,
            probe,
            on_record,
        )
    }

    /// Reduces `sequence` against `original` with a fallible probe and a
    /// write-ahead attempt log.
    ///
    /// Every probe invocation appends one [`ProbeRecord`]; `on_record` fires
    /// for each record *as it is produced* (with its index), so callers can
    /// persist the log incrementally. The search consumes `prior`'s records
    /// before invoking `probe` at all: resuming a crashed reduction with the
    /// journaled prefix replays it onto the exact same search path,
    /// bit-identically — whatever the probe would answer today.
    ///
    /// A probe returning `Err` casts no vote; after
    /// [`ReducerOptions::poison_retries`] consecutive faults within one
    /// query the candidate is quarantined ("poison test"): the query
    /// resolves to *not interesting*, conservatively keeping the chunk.
    pub fn reduce_journaled(
        &self,
        original: &Context,
        sequence: &[Transformation],
        prior: &ReductionLog,
        probe: impl FnMut(&Context) -> Result<bool, ProbeFault>,
        on_record: impl FnMut(usize, ProbeRecord),
    ) -> JournaledReduction {
        self.engine(original, None, prior, probe, on_record).run(sequence)
    }

    /// Like [`Reducer::reduce_journaled`], but seeded with `variant`, the
    /// already-materialized context of the *full* sequence — in the triage
    /// pipeline the fuzzer built exactly this context while generating the
    /// test, so replaying the whole sequence once more just to run the
    /// initial interestingness check is pure waste.
    ///
    /// `variant` must equal the result of applying `sequence` to
    /// `original` (the fuzzer's replay contract). The probe then sees
    /// bit-identical contexts, and the journal, reduced sequence and
    /// statistics match the unseeded engine's byte for byte; only the
    /// engine-work counters ([`EngineStats`]) differ.
    pub fn reduce_journaled_seeded(
        &self,
        original: &Context,
        sequence: &[Transformation],
        variant: &Context,
        prior: &ReductionLog,
        probe: impl FnMut(&Context) -> Result<bool, ProbeFault>,
        on_record: impl FnMut(usize, ProbeRecord),
    ) -> JournaledReduction {
        self.engine(original, Some(variant), prior, probe, on_record).run(sequence)
    }
}

/// The engine's prefix-cache handle: a private per-reduction cache (the
/// default), or a session onto a [`SharedPrefixCache`] shared across the
/// run's concurrent reductions. Both are behaviorally invisible; the
/// handle only decides who pays for and who may reuse each snapshot.
enum CacheHandle {
    Private(PrefixCache),
    Shared(SharedCacheSession),
}

impl CacheHandle {
    fn set_sink(&mut self, sink: SinkHandle, scope: Scope) {
        match self {
            CacheHandle::Private(cache) => cache.set_sink(sink, scope),
            CacheHandle::Shared(session) => session.set_sink(sink, scope),
        }
    }

    fn materialize_with_ids(
        &mut self,
        original: &Context,
        candidate: &[Transformation],
        ids: &[u64],
    ) -> Materialized {
        match self {
            CacheHandle::Private(cache) => cache.materialize_with_ids(original, candidate, ids),
            CacheHandle::Shared(session) => session.materialize_with_ids(original, candidate, ids),
        }
    }

    fn stats(&self) -> PrefixCacheStats {
        match self {
            CacheHandle::Private(cache) => cache.stats(),
            CacheHandle::Shared(session) => session.stats(),
        }
    }
}

/// [`ReducerOptions`] resolved into the engine's operating parameters.
struct Resolved {
    max_tests: usize,
    votes: u32,
    votes_required: u32,
    poison_retries: u32,
    shrink_added_functions: bool,
    /// `memoize_verdicts` is only sound for 1-of-1 voting (a memo entry is
    /// one probe verdict, not a vote tally), so it is resolved against it.
    memoize: bool,
}

/// The prefix-memoized reduction engine: one reduction run's state.
///
/// The search itself is a pure function of the probe-record stream; the
/// cache and memo layers only change how records are *produced*, never
/// which records a deterministic run contains.
struct Engine<'a, P, R> {
    opts: Resolved,
    sink: SinkHandle,
    scope: Scope,
    /// Probes that reached the live oracle (neither replayed nor memoized).
    live_probes: u64,
    /// Cache lookups never paired with a journaled probe (see
    /// [`EngineStats::unprobed_lookups`]).
    unprobed_lookups: u64,
    original: &'a Context,
    /// The full sequence's already-materialized context, when the caller
    /// has one (the fuzzer's variant): the initial interestingness check
    /// then skips the full-sequence replay entirely.
    initial: Option<&'a Context>,
    cache: CacheHandle,
    memo: HashMap<u64, bool>,
    memo_hits: u64,
    prior: &'a ReductionLog,
    replay_pos: usize,
    probe: P,
    on_record: R,
    log: ReductionLog,
    stats: ReductionStats,
}

impl<'a, P, R> Engine<'a, P, R>
where
    P: FnMut(&Context) -> Result<bool, ProbeFault>,
    R: FnMut(usize, ProbeRecord),
{
    #[allow(clippy::too_many_arguments)]
    fn new(
        options: ReducerOptions,
        shared_cache: Option<Arc<SharedPrefixCache>>,
        sink: SinkHandle,
        scope: Scope,
        original: &'a Context,
        initial: Option<&'a Context>,
        prior: &'a ReductionLog,
        probe: P,
        on_record: R,
    ) -> Self {
        let votes = options.votes.max(1);
        let mut cache = match shared_cache {
            Some(shared) => CacheHandle::Shared(SharedCacheSession::new(shared)),
            None => CacheHandle::Private(PrefixCache::new(options.prefix_cache_budget)),
        };
        cache.set_sink(sink.clone(), scope);
        Engine {
            opts: Resolved {
                max_tests: options.max_tests,
                votes,
                votes_required: options.votes_required.clamp(1, votes),
                poison_retries: options.poison_retries.max(1),
                shrink_added_functions: options.shrink_added_functions,
                memoize: options.memoize_verdicts && votes == 1,
            },
            sink,
            scope,
            live_probes: 0,
            unprobed_lookups: 0,
            original,
            initial,
            cache,
            memo: HashMap::new(),
            memo_hits: 0,
            prior,
            replay_pos: 0,
            probe,
            on_record,
            log: ReductionLog::new(),
            stats: ReductionStats::default(),
        }
    }

    /// Emits one live (non-replayed) record: journals it and streams it to
    /// the caller.
    fn emit(&mut self, record: ProbeRecord) -> ProbeRecord {
        (self.on_record)(self.log.records.len(), record);
        self.log.records.push(record);
        record
    }

    /// One probe invocation. Sources, in priority order: the replayed
    /// journal prefix; on a query's first invocation only, the verdict
    /// memo; finally the live probe.
    fn invoke(&mut self, ctx: &Context, fp: Option<u64>, first: bool) -> ProbeRecord {
        if self.replay_pos < self.prior.records.len() {
            let record = self.prior.records[self.replay_pos];
            self.replay_pos += 1;
            self.log.records.push(record);
            return record;
        }
        if first && self.opts.memoize {
            if let Some(&verdict) = fp.and_then(|fp| self.memo.get(&fp)) {
                self.memo_hits += 1;
                return self.emit(ProbeRecord::Answered(verdict));
            }
        }
        self.live_probes += 1;
        let started = self.sink.enabled().then(std::time::Instant::now);
        let record = match (self.probe)(ctx) {
            Ok(verdict) => ProbeRecord::Answered(verdict),
            Err(_) => ProbeRecord::Faulted,
        };
        if let Some(started) = started {
            self.sink.duration(
                self.scope,
                Counter::ProbeNanos,
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        self.emit(record)
    }

    /// One k-of-n interestingness query over an already-materialized
    /// context. Early exit once the verdict is decided, so votes only cost
    /// budget while the outcome is open; `None` means the test budget ran
    /// out mid-query.
    fn query(&mut self, ctx: &Context, fp: Option<u64>) -> Option<bool> {
        let mut yes = 0u32;
        let mut cast = 0u32;
        let mut consecutive_faults = 0u32;
        let mut invocations = 0u32;
        let mut first_record = None;
        let outcome = 'query: {
            while cast < self.opts.votes {
                if self.stats.tests_run >= self.opts.max_tests {
                    break 'query None;
                }
                self.stats.tests_run += 1;
                let record = self.invoke(ctx, fp, invocations == 0);
                invocations += 1;
                if invocations == 1 {
                    first_record = Some(record);
                }
                match record {
                    ProbeRecord::Faulted => {
                        self.stats.probe_faults += 1;
                        consecutive_faults += 1;
                        if consecutive_faults >= self.opts.poison_retries {
                            self.stats.poisoned_queries += 1;
                            break 'query Some(false);
                        }
                    }
                    ProbeRecord::Answered(verdict) => {
                        consecutive_faults = 0;
                        cast += 1;
                        if verdict {
                            yes += 1;
                        }
                        if yes >= self.opts.votes_required {
                            break 'query Some(true);
                        }
                        let remaining = self.opts.votes - cast;
                        if yes + remaining < self.opts.votes_required {
                            break 'query Some(false);
                        }
                    }
                }
            }
            Some(false)
        };
        // Memoize single-invocation answered queries. The rule is a pure
        // function of the record stream, so replaying a journal rebuilds
        // the memo the original run had at every point — resume stays
        // bit-identical even though memo hits skip the live probe.
        if self.opts.memoize && invocations == 1 {
            if let (Some(fp), Some(ProbeRecord::Answered(verdict))) = (fp, first_record) {
                self.memo.insert(fp, verdict);
            }
        }
        outcome
    }

    /// Materializes `candidate` (through the prefix cache) and queries it.
    /// The verdict is `None` when the test budget ran out; the context is
    /// always returned, so callers never replay the sequence again.
    fn check(&mut self, candidate: &[Transformation], ids: &[u64]) -> (Option<bool>, Context) {
        let m = self.cache.materialize_with_ids(self.original, candidate, ids);
        let fp = self.resolve_fp(&m);
        let journaled = self.log.records.len();
        let verdict = self.query(&m.context, fp);
        // A query abandoned by budget exhaustion before any invocation
        // journals nothing; the lookup goes on the unprobed ledger so
        // cache and journal accounting stay reconcilable.
        if self.log.records.len() == journaled {
            self.unprobed_lookups += 1;
        }
        (verdict, m.context)
    }

    /// The fingerprint accompanying a materialized candidate: the cache's,
    /// or computed on demand when a cache-less run still needs one for the
    /// memo.
    fn resolve_fp(&self, m: &Materialized) -> Option<u64> {
        m.fingerprint
            .or_else(|| self.opts.memoize.then(|| context_fingerprint(&m.context)))
    }

    /// The §3.4 delta-debugging search, followed by the optional payload
    /// shrink phase.
    fn run(mut self, sequence: &[Transformation]) -> JournaledReduction {
        let mut current: Vec<Transformation> = sequence.to_vec();
        let mut ids: Vec<u64> = current.iter().map(transformation_id).collect();

        // The full sequence must be interesting to begin with. Its
        // materialized context doubles as the result context on the
        // early-return paths — no separate replay. When the caller handed
        // over the already-built variant (the fuzzer's own output), even
        // the first replay is skipped: the prefix chain is then rebuilt
        // lazily, and only up to the deepest prefix a candidate ever
        // needs.
        let (initial_verdict, initial_ctx) = match self.initial {
            Some(ctx) => {
                let fp = self.opts.memoize.then(|| context_fingerprint(ctx));
                (self.query(ctx, fp), ctx.clone())
            }
            None => self.check(&current, &ids),
        };
        let mut current_ctx = initial_ctx;
        match initial_verdict {
            Some(true) => {}
            Some(false) | None => return self.finish(current, current_ctx),
        }

        let mut chunk_size = (current.len() / 2).max(1);
        let mut budget_exhausted = false;
        loop {
            let mut removed_any = false;
            // Chunks from the back: the final chunk is [n - c, n), then
            // [n - 2c, n - c), ...; the leading chunk may be smaller than c.
            let mut end = current.len();
            while end > 0 {
                let start = end.saturating_sub(chunk_size);
                let mut candidate = Vec::with_capacity(current.len() - (end - start));
                candidate.extend_from_slice(&current[..start]);
                candidate.extend_from_slice(&current[end..]);
                let cand_ids: Vec<u64> =
                    ids[..start].iter().chain(&ids[end..]).copied().collect();
                let (verdict, ctx) = self.check(&candidate, &cand_ids);
                match verdict {
                    Some(true) => {
                        current = candidate;
                        ids = cand_ids;
                        current_ctx = ctx;
                        self.stats.chunks_removed += 1;
                        removed_any = true;
                        // Continue leftwards over the shortened sequence.
                        end = start.min(current.len());
                    }
                    Some(false) => {
                        end = start;
                    }
                    None => {
                        budget_exhausted = true;
                        end = 0;
                    }
                }
            }
            if budget_exhausted {
                break;
            }
            if removed_any {
                // Another pass at the same granularity (§3.4 repeats until
                // no chunk of size c can be removed).
                continue;
            }
            if chunk_size == 1 {
                break;
            }
            chunk_size = (chunk_size / 2).max(1);
        }

        if self.opts.shrink_added_functions && !budget_exhausted {
            self.shrink_payloads(&mut current, &mut ids, &mut current_ctx);
        }

        self.finish(current, current_ctx)
    }

    /// Tries to delete instructions from the bodies of `AddFunction`
    /// payloads while the test stays interesting (the spirv-reduce
    /// analogue). Candidates share the prefix cache: only the modified
    /// payload and its suffix are re-applied per shrink attempt.
    fn shrink_payloads(
        &mut self,
        current: &mut Vec<Transformation>,
        ids: &mut Vec<u64>,
        current_ctx: &mut Context,
    ) {
        for index in 0..current.len() {
            let Transformation::AddFunction(payload) = &current[index] else {
                continue;
            };
            let mut payload = payload.clone();
            let mut progress = true;
            while progress {
                progress = false;
                // Try removing each instruction, from the back.
                let positions: Vec<(usize, usize)> = payload
                    .function
                    .blocks
                    .iter()
                    .enumerate()
                    .flat_map(|(bi, b)| (0..b.instructions.len()).map(move |ii| (bi, ii)))
                    .collect();
                for &(bi, ii) in positions.iter().rev() {
                    let mut candidate_payload = payload.clone();
                    candidate_payload.function.blocks[bi].instructions.remove(ii);
                    let mut candidate = current.clone();
                    candidate[index] = Transformation::AddFunction(candidate_payload.clone());
                    let mut cand_ids = ids.clone();
                    cand_ids[index] = transformation_id(&candidate[index]);
                    let m =
                        self.cache.materialize_with_ids(self.original, &candidate, &cand_ids);
                    // The shrunken payload must still apply — otherwise the
                    // variant silently loses the whole function. Skipped
                    // candidates cost a lookup but never a probe.
                    if !m.mask[index] {
                        self.unprobed_lookups += 1;
                        continue;
                    }
                    let fp = self.resolve_fp(&m);
                    let journaled = self.log.records.len();
                    let verdict = self.query(&m.context, fp);
                    if self.log.records.len() == journaled {
                        self.unprobed_lookups += 1;
                    }
                    match verdict {
                        None => return,
                        Some(true) => {
                            payload = candidate_payload;
                            *current = candidate;
                            *ids = cand_ids;
                            *current_ctx = m.context;
                            self.stats.payload_instructions_removed += 1;
                            progress = true;
                            break;
                        }
                        Some(false) => {}
                    }
                }
            }
        }
    }

    fn finish(self, sequence: Vec<Transformation>, context: Context) -> JournaledReduction {
        let engine = EngineStats {
            cache: self.cache.stats(),
            memo_hits: self.memo_hits,
            unprobed_lookups: self.unprobed_lookups,
        };
        if self.sink.enabled() {
            let scope = self.scope;
            let stats = self.stats;
            // Search counters (logical level; the cache already streamed
            // its own counters per materialize).
            self.sink.count(scope, Counter::TestsRun, stats.tests_run as u64);
            self.sink.count(scope, Counter::ChunksRemoved, stats.chunks_removed as u64);
            self.sink.count(
                scope,
                Counter::PayloadInstructionsRemoved,
                stats.payload_instructions_removed as u64,
            );
            self.sink.count(scope, Counter::ProbeFaults, stats.probe_faults as u64);
            self.sink.count(scope, Counter::PoisonedQueries, stats.poisoned_queries as u64);
            // Engine counters (engine level: fresh-run invariant, shrink on
            // resume because replayed probes skip live work).
            self.sink.count(scope, Counter::MemoHits, engine.memo_hits);
            self.sink.count(scope, Counter::LiveProbes, self.live_probes);
            self.sink.count(scope, Counter::CacheUnprobedLookups, engine.unprobed_lookups);
        }
        JournaledReduction {
            reduction: Reduction { sequence, context, stats: self.stats, engine },
            log: self.log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_core::transformations::SetFunctionControl;
    use trx_core::apply_sequence;
    use trx_ir::{FunctionControl, Inputs, ModuleBuilder};

    pub(crate) fn tiny_context() -> Context {
        let mut b = ModuleBuilder::new();
        let c = b.constant_int(1);
        let t_int = b.type_int();
        let mut h = b.begin_function(t_int, &[]);
        h.ret_value(c);
        let helper = h.finish();
        let mut f = b.begin_entry_function("main");
        let r = f.call(helper, vec![]);
        f.store_output("out", r);
        f.ret();
        f.finish();
        Context::new(b.finish(), Inputs::default()).unwrap()
    }

    pub(crate) fn helper_of(ctx: &Context) -> trx_ir::Id {
        ctx.module
            .functions
            .iter()
            .map(|f| f.id)
            .find(|&id| id != ctx.module.entry_point)
            .unwrap()
    }

    /// A synthetic sequence of N SetFunctionControl flips.
    pub(crate) fn flip_sequence(ctx: &Context, n: usize) -> Vec<Transformation> {
        let helper = helper_of(ctx);
        (0..n)
            .map(|i| {
                let control = if i % 2 == 0 {
                    FunctionControl::DontInline
                } else {
                    FunctionControl::Inline
                };
                SetFunctionControl { function: helper, control }.into()
            })
            .collect()
    }

    #[test]
    fn reduces_to_single_needed_transformation() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 17);
        // Interesting iff the helper ends with DontInline; the 1-minimal
        // answer is a single DontInline flip.
        let reduction = Reducer::default().reduce(&ctx, &sequence, |variant| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        });
        assert_eq!(reduction.sequence.len(), 1);
        assert_eq!(
            reduction.context.module.function(helper).unwrap().control,
            FunctionControl::DontInline
        );
        assert!(reduction.stats.tests_run > 0);
        assert!(reduction.stats.chunks_removed > 0);
    }

    #[test]
    fn uninteresting_input_returned_unchanged() {
        let ctx = tiny_context();
        let sequence = flip_sequence(&ctx, 5);
        let reduction = Reducer::default().reduce(&ctx, &sequence, |_| false);
        assert_eq!(reduction.sequence.len(), 5);
    }

    #[test]
    fn empty_sequence_is_handled() {
        let ctx = tiny_context();
        let reduction = Reducer::default().reduce(&ctx, &[], |_| true);
        assert!(reduction.sequence.is_empty());
    }

    #[test]
    fn result_is_one_minimal() {
        let ctx = tiny_context();
        let sequence = flip_sequence(&ctx, 13);
        let helper = helper_of(&ctx);
        let is_interesting = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let reduction = Reducer::default().reduce(&ctx, &sequence, is_interesting);
        // Dropping any single remaining transformation must lose
        // interestingness.
        for skip in 0..reduction.sequence.len() {
            let mut candidate = reduction.sequence.clone();
            candidate.remove(skip);
            let mut variant = ctx.clone();
            apply_sequence(&mut variant, &candidate);
            assert!(
                !is_interesting(&variant),
                "sequence is not 1-minimal: position {skip} removable"
            );
        }
    }

    #[test]
    fn test_budget_is_respected() {
        let ctx = tiny_context();
        let sequence = flip_sequence(&ctx, 40);
        let helper = helper_of(&ctx);
        let reducer = Reducer::new(ReducerOptions {
            shrink_added_functions: false,
            max_tests: 3,
            ..ReducerOptions::default()
        });
        let reduction = reducer.reduce(&ctx, &sequence, |variant| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        });
        assert!(reduction.stats.tests_run <= 3);
    }

    #[test]
    fn budget_exhaustion_keeps_best_so_far() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let is_interesting = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let full = flip_sequence(&ctx, 31);
        for budget in 1..40 {
            let reducer = Reducer::new(ReducerOptions {
                shrink_added_functions: false,
                max_tests: budget,
                ..ReducerOptions::default()
            });
            let reduction = reducer.reduce(&ctx, &full, is_interesting);
            assert!(reduction.stats.tests_run <= budget);
            // Whatever the budget, the kept sequence is never worse than
            // the input: it still triggers the bug.
            assert!(
                is_interesting(&reduction.context),
                "budget {budget}: best-so-far sequence lost interestingness"
            );
            assert!(reduction.sequence.len() <= full.len());
        }
    }

    #[test]
    fn votes_count_against_the_budget() {
        let ctx = tiny_context();
        let sequence = flip_sequence(&ctx, 4);
        // 3-of-3 voting with an always-true oracle: the initial query alone
        // costs 3 tests.
        let mut calls = 0usize;
        let reducer = Reducer::new(
            ReducerOptions {
                shrink_added_functions: false,
                max_tests: 3,
                ..ReducerOptions::default()
            }
            .with_votes(3, 3),
        );
        let reduction = reducer.reduce(&ctx, &sequence, |_| {
            calls += 1;
            true
        });
        assert_eq!(calls, 3, "each vote invokes the oracle");
        assert_eq!(reduction.stats.tests_run, 3);
        // Budget spent on the initial query: nothing was reduced.
        assert_eq!(reduction.sequence.len(), 4);
    }

    #[test]
    fn majority_vote_short_circuits() {
        let ctx = tiny_context();
        // 2-of-3 with an always-true oracle decides after 2 votes.
        let mut calls = 0usize;
        let reducer = Reducer::new(
            ReducerOptions {
                shrink_added_functions: false,
                ..ReducerOptions::default()
            }
            .with_majority_votes(3),
        );
        let reduction = reducer.reduce(&ctx, &[], |_| {
            calls += 1;
            true
        });
        assert_eq!(calls, 2, "a decided vote stops early");
        assert!(reduction.sequence.is_empty());
    }

    /// A deterministic flaky oracle: reports a genuine "interesting" with
    /// probability ~`1 - flake`, never reports a spurious one (the
    /// crash-doesn't-reproduce failure mode).
    struct FlakyOracle {
        state: u64,
        flake_millis: u64,
    }

    impl FlakyOracle {
        fn flakes(&mut self) -> bool {
            // SplitMix64 step.
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            z % 1000 < self.flake_millis
        }
    }

    #[test]
    fn journaled_reduction_matches_plain_reduction() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 17);
        let oracle = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let plain = Reducer::default().reduce(&ctx, &sequence, oracle);
        let mut streamed = Vec::new();
        let journaled = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            |variant| Ok(oracle(variant)),
            |index, record| streamed.push((index, record)),
        );
        assert_eq!(journaled.reduction.sequence, plain.sequence);
        assert_eq!(journaled.reduction.stats, plain.stats);
        assert_eq!(journaled.log.len(), plain.stats.tests_run);
        // on_record streamed every record, in order, with its index.
        assert_eq!(streamed.len(), journaled.log.len());
        for (i, (index, record)) in streamed.iter().enumerate() {
            assert_eq!(*index, i);
            assert_eq!(*record, journaled.log.records[i]);
        }
    }

    #[test]
    fn resume_from_any_log_prefix_is_bit_identical() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 9);
        let oracle = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let golden = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            |variant| Ok(oracle(variant)),
            |_, _| {},
        );
        // Crash after k journaled probes, for every k: resuming replays the
        // prefix without touching the probe and lands on the same result.
        for k in 0..=golden.log.len() {
            let prefix = ReductionLog { records: golden.log.records[..k].to_vec() };
            let mut live_probes = 0usize;
            let resumed = Reducer::default().reduce_journaled(
                &ctx,
                &sequence,
                &prefix,
                |variant| {
                    live_probes += 1;
                    Ok(oracle(variant))
                },
                |_, _| {},
            );
            assert_eq!(resumed.reduction.sequence, golden.reduction.sequence, "prefix {k}");
            assert_eq!(resumed.reduction.stats, golden.reduction.stats, "prefix {k}");
            assert_eq!(resumed.log, golden.log, "prefix {k}");
            assert_eq!(live_probes, golden.log.len() - k, "prefix {k}");
        }
    }

    #[test]
    fn resume_with_full_log_never_invokes_probe() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 9);
        let golden = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            |variant| {
                Ok(variant.module.function(helper).unwrap().control
                    == FunctionControl::DontInline)
            },
            |_, _| {},
        );
        // A probe that would change every answer — and must never run.
        let resumed = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &golden.log,
            |_| panic!("resume with a complete log must not invoke the probe"),
            |_, _| {},
        );
        assert_eq!(resumed.reduction.sequence, golden.reduction.sequence);
        assert_eq!(resumed.log, golden.log);
    }

    #[test]
    fn transient_probe_faults_are_retried() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 9);
        let oracle = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let clean = Reducer::default().reduce(&ctx, &sequence, oracle);
        // Every third probe faults once; poison_retries 3 absorbs each.
        let mut calls = 0usize;
        let faulty = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            |variant| {
                calls += 1;
                if calls.is_multiple_of(3) {
                    Err(ProbeFault("injected".into()))
                } else {
                    Ok(oracle(variant))
                }
            },
            |_, _| {},
        );
        assert_eq!(faulty.reduction.sequence, clean.sequence);
        assert!(faulty.reduction.stats.probe_faults > 0);
        assert_eq!(faulty.reduction.stats.poisoned_queries, 0);
        // Faults cost budget: more tests than the clean run.
        assert!(faulty.reduction.stats.tests_run > clean.stats.tests_run);
    }

    #[test]
    fn persistent_probe_faults_quarantine_the_candidate() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 9);
        let oracle = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        // The probe faults persistently on every uninteresting variant —
        // poison candidates. The reducer must quarantine those queries
        // (verdict "not interesting", which here matches the oracle) and
        // still converge on the same answer as a clean run.
        let journaled = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            |variant| {
                if oracle(variant) {
                    Ok(true)
                } else {
                    Err(ProbeFault("poison".into()))
                }
            },
            |_, _| {},
        );
        assert!(journaled.reduction.stats.poisoned_queries > 0);
        assert_eq!(
            journaled.reduction.stats.probe_faults,
            journaled.reduction.stats.poisoned_queries * 3,
            "each quarantine costs exactly poison_retries faulting probes"
        );
        // The result still triggers the bug.
        assert!(oracle(&journaled.reduction.context));
    }

    #[test]
    fn poisoned_reduction_resumes_bit_identically() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 9);
        let oracle = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let probe = |variant: &Context| {
            if oracle(variant) {
                Ok(true)
            } else {
                Err(ProbeFault("poison".into()))
            }
        };
        let golden = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            probe,
            |_, _| {},
        );
        let mid = golden.log.len() / 2;
        let prefix = ReductionLog { records: golden.log.records[..mid].to_vec() };
        let resumed = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &prefix,
            probe,
            |_, _| {},
        );
        assert_eq!(resumed.reduction.sequence, golden.reduction.sequence);
        assert_eq!(resumed.reduction.stats, golden.reduction.stats);
        assert_eq!(resumed.log, golden.log);
    }

    #[test]
    fn majority_vote_reduces_under_flaky_oracle() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let truly_interesting = |variant: &Context| {
            variant.module.function(helper).unwrap().control == FunctionControl::DontInline
        };
        let sequence = flip_sequence(&ctx, 17);

        // 30% of genuine reproductions are missed.
        let mut oracle = FlakyOracle { state: 0xdead_beef, flake_millis: 300 };
        let reducer = Reducer::new(
            ReducerOptions {
                shrink_added_functions: false,
                ..ReducerOptions::default()
            }
            .with_votes(2, 5),
        );
        let reduction = reducer.reduce(&ctx, &sequence, |variant| {
            truly_interesting(variant) && !oracle.flakes()
        });

        // The reduced sequence must trigger the bug *deterministically* —
        // verified against the non-flaky oracle.
        assert!(truly_interesting(&reduction.context));
        assert!(
            reduction.sequence.len() <= 3,
            "2-of-5 voting should get close to minimal, got {}",
            reduction.sequence.len()
        );
        assert!(reduction.stats.tests_run > reduction.stats.chunks_removed);
    }
}

#[cfg(test)]
mod shrink_tests {
    use super::*;
    use trx_core::transformations::AddFunction;
    use trx_ir::{
        BinOp, Block, Function, FunctionControl, FunctionParam, Id, Inputs, Instruction,
        ModuleBuilder, Op, Terminator, Type,
    };

    /// Builds a context plus an AddFunction whose payload contains dead
    /// instructions the shrink phase can delete.
    fn context_and_bloated_function() -> (Context, Vec<Transformation>) {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c1 = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        f.store_output("out", c1);
        f.ret();
        f.finish();
        let module = b.finish();
        let ctx = Context::new(module, Inputs::default()).unwrap();

        let fn_ty = ctx
            .module
            .lookup_type(&Type::Function { ret: t_int, params: vec![t_int] }).unwrap_or_else(|| {
                    // Declare via a supporting transformation.
                    Id::new(ctx.module.id_bound)
                });
        let mut sequence: Vec<Transformation> = Vec::new();
        let mut next = ctx.module.id_bound;
        let mut fresh = || {
            let id = Id::new(next);
            next += 1;
            id
        };
        let declared_fn_ty = if ctx
            .module
            .lookup_type(&Type::Function { ret: t_int, params: vec![t_int] })
            .is_none()
        {
            let id = fresh();
            sequence.push(
                trx_core::transformations::AddType {
                    fresh_id: id,
                    ty: Type::Function { ret: t_int, params: vec![t_int] },
                }
                .into(),
            );
            id
        } else {
            fn_ty
        };
        let fid = fresh();
        let pid = fresh();
        let label = fresh();
        // Three dead adds, then the returned value.
        let dead1 = fresh();
        let dead2 = fresh();
        let dead3 = fresh();
        let kept = fresh();
        let mk = |result, lhs, rhs| {
            Instruction::with_result(
                result,
                t_int,
                Op::Binary { op: BinOp::IAdd, lhs, rhs },
            )
        };
        let function = Function {
            id: fid,
            ty: declared_fn_ty,
            control: FunctionControl::None,
            params: vec![FunctionParam { id: pid, ty: t_int }],
            blocks: vec![Block {
                label,
                instructions: vec![
                    mk(dead1, pid, pid),
                    mk(dead2, dead1, pid),
                    mk(dead3, dead2, dead2),
                    mk(kept, pid, pid),
                ],
                merge: None,
                terminator: Terminator::ReturnValue { value: kept },
            }],
        };
        sequence.push(AddFunction { function, livesafe: true }.into());
        (ctx, sequence)
    }

    #[test]
    fn payload_shrink_removes_dead_instructions() {
        let (ctx, sequence) = context_and_bloated_function();
        // Interesting iff the module contains a second function at all.
        let reduction = Reducer::default().reduce(&ctx, &sequence, |variant| {
            variant.module.functions.len() == 2
        });
        assert!(
            reduction.stats.payload_instructions_removed >= 3,
            "the three dead adds should be shrunk away, got {}",
            reduction.stats.payload_instructions_removed
        );
        // The surviving payload still applies and keeps the function.
        assert_eq!(reduction.context.module.functions.len(), 2);
    }

    #[test]
    fn payload_shrink_is_cache_invariant() {
        // The shrink phase routes candidates through the prefix cache;
        // disabling the cache (budget 0) must not change a single byte of
        // the journal or the result, only the amount of replay work.
        let (ctx, sequence) = context_and_bloated_function();
        let run = |budget: usize| {
            Reducer::new(ReducerOptions {
                prefix_cache_budget: budget,
                ..ReducerOptions::default()
            })
            .reduce_journaled(
                &ctx,
                &sequence,
                &ReductionLog::new(),
                |variant| Ok(variant.module.functions.len() == 2),
                |_, _| {},
            )
        };
        let uncached = run(0);
        let cached = run(256);
        assert_eq!(cached.log, uncached.log);
        assert_eq!(cached.reduction.sequence, uncached.reduction.sequence);
        assert_eq!(cached.reduction.stats, uncached.reduction.stats);
        assert_eq!(
            cached.reduction.context.module,
            uncached.reduction.context.module
        );
        assert!(
            cached.reduction.engine.cache.transformations_applied
                < uncached.reduction.engine.cache.transformations_applied,
            "shrink candidates should reuse cached prefixes"
        );
    }

    #[test]
    fn payload_shrink_can_be_disabled() {
        let (ctx, sequence) = context_and_bloated_function();
        let reducer =
            Reducer::new(ReducerOptions {
                shrink_added_functions: false,
                max_tests: 10_000,
                ..ReducerOptions::default()
            });
        let reduction = reducer.reduce(&ctx, &sequence, |variant| {
            variant.module.functions.len() == 2
        });
        assert_eq!(reduction.stats.payload_instructions_removed, 0);
    }

    #[test]
    fn unprobed_lookups_reconcile_cache_lookups_with_the_journal() {
        // Unseeded, 1-of-1 and deterministic: every cache
        // lookup either journals exactly one probe record or lands on the
        // unprobed ledger — the shrink phase's mask-skipped candidates are
        // the interesting source.
        let (ctx, sequence) = context_and_bloated_function();
        let out = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            |variant| Ok(variant.module.functions.len() == 2),
            |_, _| {},
        );
        let engine = &out.reduction.engine;
        assert!(
            engine.unprobed_lookups > 0,
            "shrinking a payload with data dependencies must skip some candidates"
        );
        assert_eq!(
            engine.cache.lookups,
            out.log.len() as u64 + engine.unprobed_lookups,
            "cache lookups and the journal no longer reconcile"
        );
    }
}

#[cfg(test)]
mod shared_cache_tests {
    use super::tests::{flip_sequence, helper_of, tiny_context};
    use super::*;
    use trx_core::SharedPrefixCache;
    use trx_ir::FunctionControl;

    #[test]
    fn shared_cache_reduction_is_byte_identical_to_private() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 17);
        let oracle = move |variant: &Context| {
            Ok(variant.module.function(helper).unwrap().control == FunctionControl::DontInline)
        };
        let private = Reducer::default().reduce_journaled(
            &ctx,
            &sequence,
            &ReductionLog::new(),
            oracle,
            |_, _| {},
        );
        for shards in [1usize, 3, 8] {
            let cache = Arc::new(SharedPrefixCache::new(1 << 20, shards));
            let shared = Reducer::default()
                .with_shared_cache(Arc::clone(&cache))
                .reduce_journaled(&ctx, &sequence, &ReductionLog::new(), oracle, |_, _| {});
            assert_eq!(shared.log, private.log, "{shards} shards: journals differ");
            assert_eq!(shared.reduction.sequence, private.reduction.sequence);
            assert_eq!(shared.reduction.stats, private.reduction.stats);
            assert_eq!(shared.reduction.context.module, private.reduction.context.module);
            cache.debug_check_accounting();
        }
    }

    #[test]
    fn shared_cache_reuses_sibling_work_across_reductions() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 17);
        let cache = Arc::new(SharedPrefixCache::new(1 << 20, 4));
        let run = || {
            Reducer::default()
                .with_shared_cache(Arc::clone(&cache))
                .reduce_journaled(
                    &ctx,
                    &sequence,
                    &ReductionLog::new(),
                    move |variant| {
                        Ok(variant.module.function(helper).unwrap().control
                            == FunctionControl::DontInline)
                    },
                    |_, _| {},
                )
                .reduction
        };
        let first = run();
        let second = run();
        // Identical reductions: the second session walks entirely on the
        // first one's snapshots.
        assert_eq!(second.sequence, first.sequence);
        assert!(
            second.engine.cache.transformations_applied
                < first.engine.cache.transformations_applied,
            "second reduction re-applied as much as the first: {} vs {}",
            second.engine.cache.transformations_applied,
            first.engine.cache.transformations_applied,
        );
        assert!(second.engine.cache.transformations_saved > 0);
    }

    #[test]
    fn balance_holds_for_shared_cache_and_budget_exhaustion() {
        let ctx = tiny_context();
        let helper = helper_of(&ctx);
        let sequence = flip_sequence(&ctx, 17);
        for max_tests in [5usize, 100_000] {
            for shared in [false, true] {
                let mut reducer = Reducer::new(ReducerOptions {
                    max_tests,
                    ..ReducerOptions::default()
                });
                if shared {
                    reducer = reducer
                        .with_shared_cache(Arc::new(SharedPrefixCache::new(1 << 20, 2)));
                }
                let out = reducer.reduce_journaled(
                    &ctx,
                    &sequence,
                    &ReductionLog::new(),
                    move |variant| {
                        Ok(variant.module.function(helper).unwrap().control
                            == FunctionControl::DontInline)
                    },
                    |_, _| {},
                );
                let engine = &out.reduction.engine;
                assert_eq!(
                    engine.cache.lookups,
                    out.log.len() as u64 + engine.unprobed_lookups,
                    "max_tests {max_tests}, shared {shared}: books don't balance"
                );
            }
        }
    }
}
