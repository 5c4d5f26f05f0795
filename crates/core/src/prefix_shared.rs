//! A concurrent, sharded, byte-budgeted prefix cache shared across
//! reductions.
//!
//! [`crate::PrefixCache`] memoizes applied-transformation prefixes for *one*
//! reduction; bugs found by the same campaign share long sequence prefixes,
//! so per-bug parallel reducers warming private caches repeat each other's
//! work. [`SharedPrefixCache`] lifts the same state-transition chain — edges
//! keyed by `(state fingerprint, transformation id)` — into a process-wide
//! structure any number of reducers walk concurrently:
//!
//! * **Sharding.** Edges hash to one of N mutex-guarded shards, so
//!   concurrent walks contend only when they touch the same slice of the
//!   key space. Each lock is held for one map operation, never across an
//!   `apply` or a fingerprint computation.
//! * **Byte-size-aware eviction.** The old cache bounded *edge count*,
//!   which is blind to state size — one edge may pin a module 100× larger
//!   than another. Every edge is charged
//!   [`crate::context_size_estimate`] bytes against its shard's slice of
//!   the byte budget, and eviction runs one CLOCK ring per shard: a cheap
//!   second-chance sweep instead of the old global min-scan.
//!
//! Edges hold `Arc<Context>` snapshots: a reader that wins a lookup keeps
//! its snapshot alive even if the edge is evicted a microsecond later, and
//! insertion shares the walker's own snapshot without a second clone.
//!
//! # Determinism contract
//!
//! Cache *contents* depend on thread timing; reduced *outputs* do not. An
//! edge is only ever followed when the walker's current state fingerprint
//! equals the edge's key fingerprint, and `apply` is deterministic, so a
//! cached transition is exactly what a fresh replay would compute (the same
//! 64-bit-collision caveat [`crate::context_fingerprint`] documents). Every
//! counter the shared cache emits is [`Level::Volatile`] and excluded from
//! deterministic metric snapshots.
//!
//! [`Level::Volatile`]: trx_observe::Level::Volatile

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use trx_observe::{Counter, Scope, SinkHandle};

use crate::context::Context;
use crate::fingerprint::context_fingerprint;
use crate::prefix::{Materialized, PrefixCacheStats};
use crate::size::context_size_estimate;
use crate::transformation::{apply, Transformation};

/// Aggregated work counters for the shared cache (per shard or summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedCacheStats {
    /// Edge lookups served (one per transformation step walked).
    pub lookups: u64,
    /// Lookups that found a matching cached transition.
    pub hits: u64,
    /// Edges admitted.
    pub insertions: u64,
    /// Edges displaced by the byte budget.
    pub evictions: u64,
    /// Insertions refused because the entry alone exceeds its shard's
    /// budget.
    pub rejected: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_bytes: u64,
}

impl SharedCacheStats {
    fn absorb(&mut self, other: &SharedCacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.rejected += other.rejected;
        self.resident_bytes += other.resident_bytes;
        self.peak_bytes += other.peak_bytes;
    }
}

/// One cached state transition.
struct SharedEdge {
    context: Arc<Context>,
    applied: bool,
    fp: u64,
    bytes: usize,
    /// CLOCK reference bit: set on every touch, cleared by the hand.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    edges: HashMap<(u64, u64), SharedEdge>,
    /// CLOCK ring of keys. Entries go stale when their edge is evicted
    /// through another entry for the same key (a replaced key is pushed
    /// again); the sweep skips stale entries lazily instead of searching
    /// the ring on every replacement.
    clock: VecDeque<(u64, u64)>,
    bytes: usize,
    stats: SharedCacheStats,
    /// Stats already emitted by `flush_to_sink`; deltas keep repeated
    /// flushes (one per daemon job) from double-counting.
    flushed: SharedCacheStats,
}

impl Shard {
    /// Displaces one resident edge, giving referenced edges a second
    /// chance. Returns `false` when the shard has no resident edges left.
    /// Each iteration retires a ring entry or clears one reference bit, and
    /// cleared entries are not re-referenced while the shard lock is held,
    /// so the sweep terminates.
    fn evict_one(&mut self) -> bool {
        while let Some(key) = self.clock.pop_front() {
            let Some(edge) = self.edges.get_mut(&key) else {
                continue;
            };
            if edge.referenced {
                edge.referenced = false;
                self.clock.push_back(key);
                continue;
            }
            let edge = self.edges.remove(&key).expect("resident edge");
            self.bytes -= edge.bytes;
            self.stats.evictions += 1;
            return true;
        }
        false
    }

    /// Makes room for `need` bytes under `budget`.
    fn make_room(&mut self, need: usize, budget: usize) -> bool {
        while self.bytes + need > budget {
            if !self.evict_one() {
                return false;
            }
        }
        true
    }
}

/// Outcome of [`SharedPrefixCache::insert`]: whether the edge was admitted
/// and how many resident edges it displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// `false` when the edge was rejected (larger than its shard's budget).
    pub inserted: bool,
    /// Edges evicted to make room.
    pub evictions: u64,
}

/// A concurrent prefix-transition cache shared by every reducer in a
/// pipeline run (or every job on a daemon shard). See the module docs for
/// the sharding, byte-budget and eviction scheme.
pub struct SharedPrefixCache {
    shards: Vec<Mutex<Shard>>,
    budget_bytes: usize,
    shard_budget: usize,
}

impl std::fmt::Debug for SharedPrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPrefixCache")
            .field("shards", &self.shards.len())
            .field("budget_bytes", &self.budget_bytes)
            .finish_non_exhaustive()
    }
}

impl SharedPrefixCache {
    /// Creates a cache of `shards` shards (at least 1) splitting
    /// `budget_bytes` evenly. A zero budget admits nothing: every walk
    /// replays live, which keeps the zero-budget reference semantics of the
    /// private cache.
    #[must_use]
    pub fn new(budget_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        SharedPrefixCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            budget_bytes,
            shard_budget: budget_bytes.div_ceil(shards),
        }
    }

    /// The total byte budget across all shards.
    #[must_use]
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// The number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: (u64, u64)) -> &Mutex<Shard> {
        // Fibonacci multiplicative mix of both key halves; the high bits
        // pick the shard so sequential fingerprints spread.
        let mixed = (key.0 ^ key.1.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let index = (mixed >> 32) as usize % self.shards.len();
        &self.shards[index]
    }

    fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        // A panicking walker holds the lock only across plain map edits,
        // which cannot leave byte accounting torn mid-operation; recover
        // rather than poisoning every other reducer.
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the transition for `key`. A hit sets the edge's CLOCK
    /// reference bit.
    pub fn lookup(&self, key: (u64, u64)) -> Option<(Arc<Context>, bool, u64)> {
        let mut shard = Self::lock(self.shard_for(key));
        shard.stats.lookups += 1;
        let edge = shard.edges.get_mut(&key)?;
        edge.referenced = true;
        let hit = (Arc::clone(&edge.context), edge.applied, edge.fp);
        shard.stats.hits += 1;
        Some(hit)
    }

    /// Admits the transition for `key`, charging `bytes` against the
    /// shard's budget. Replaces any existing edge for the key.
    pub fn insert(
        &self,
        key: (u64, u64),
        context: Arc<Context>,
        applied: bool,
        fp: u64,
        bytes: usize,
    ) -> InsertOutcome {
        let mut shard = Self::lock(self.shard_for(key));
        if bytes > self.shard_budget {
            shard.stats.rejected += 1;
            return InsertOutcome { inserted: false, evictions: 0 };
        }
        if let Some(old) = shard.edges.remove(&key) {
            shard.bytes -= old.bytes;
        }
        let before = shard.stats.evictions;
        if !shard.make_room(bytes, self.shard_budget) {
            let evictions = shard.stats.evictions - before;
            shard.stats.rejected += 1;
            return InsertOutcome { inserted: false, evictions };
        }
        shard.edges.insert(key, SharedEdge { context, applied, fp, bytes, referenced: true });
        shard.clock.push_back(key);
        shard.bytes += bytes;
        shard.stats.insertions += 1;
        let resident = shard.bytes as u64;
        shard.stats.peak_bytes = shard.stats.peak_bytes.max(resident);
        let evictions = shard.stats.evictions - before;
        InsertOutcome { inserted: true, evictions }
    }

    /// Work counters summed over every shard (`resident_bytes` and
    /// `peak_bytes` sum too — they are per-shard gauges).
    #[must_use]
    pub fn stats(&self) -> SharedCacheStats {
        let mut total = SharedCacheStats::default();
        for shard in &self.shards {
            let mut shard = Self::lock(shard);
            shard.stats.resident_bytes = shard.bytes as u64;
            total.absorb(&shard.stats);
        }
        total
    }

    /// Emits per-shard counter deltas since the previous flush under
    /// [`Scope::CacheShard`]. Every counter is volatile: deterministic
    /// snapshots drop them by construction.
    pub fn flush_to_sink(&self, sink: &SinkHandle) {
        if !sink.enabled() {
            return;
        }
        for (index, shard) in self.shards.iter().enumerate() {
            let mut shard = Self::lock(shard);
            shard.stats.resident_bytes = shard.bytes as u64;
            let now = shard.stats;
            let prev = shard.flushed;
            let scope = Scope::CacheShard(index);
            sink.count(scope, Counter::SharedCacheLookups, now.lookups - prev.lookups);
            sink.count(scope, Counter::SharedCacheHits, now.hits - prev.hits);
            sink.count(scope, Counter::SharedCacheInsertions, now.insertions - prev.insertions);
            sink.count(scope, Counter::SharedCacheEvictions, now.evictions - prev.evictions);
            sink.count(scope, Counter::SharedCacheRejected, now.rejected - prev.rejected);
            sink.count(scope, Counter::SharedCacheResidentBytes, now.resident_bytes);
            sink.count(scope, Counter::SharedCachePeakBytes, now.peak_bytes);
            shard.flushed = now;
        }
    }

    /// Verifies shard byte accounting: resident bytes equal the sum of
    /// edge charges and never exceed the per-shard budget. Cheap enough for
    /// tests to call between operations; not wired into release paths.
    #[doc(hidden)]
    pub fn debug_check_accounting(&self) {
        for shard in &self.shards {
            let shard = Self::lock(shard);
            let sum: usize = shard.edges.values().map(|e| e.bytes).sum();
            assert_eq!(shard.bytes, sum, "resident bytes must equal the sum of edge charges");
            assert!(
                shard.bytes <= self.shard_budget,
                "resident bytes {} exceed the shard budget {}",
                shard.bytes,
                self.shard_budget
            );
        }
    }
}

/// Where a shared-cache walk currently stands.
enum WalkCarrier {
    /// Still at the original context (empty prefix so far).
    Root,
    /// Standing on a cached (or just-inserted) snapshot.
    Cached(Arc<Context>),
    /// Off the cached frontier with an owned context the cache refused to
    /// admit (boxed to keep the enum small).
    Owned(Box<Context>),
}

/// One reduction's handle onto a [`SharedPrefixCache`].
///
/// The session carries the per-reduction pieces the shared structure cannot:
/// the root fingerprint of *this* reduction's original context, the
/// per-reduction [`PrefixCacheStats`] the engine reports, and the metric
/// sink scope. Its `materialize_with_ids` is a drop-in replacement for
/// [`crate::PrefixCache::materialize_with_ids`].
pub struct SharedCacheSession {
    cache: Arc<SharedPrefixCache>,
    root_fp: Option<u64>,
    stats: PrefixCacheStats,
    flushed: PrefixCacheStats,
    sink: SinkHandle,
    sink_scope: Scope,
}

impl std::fmt::Debug for SharedCacheSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCacheSession")
            .field("cache", &self.cache)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SharedCacheSession {
    /// Opens a session on `cache` for one reduction.
    #[must_use]
    pub fn new(cache: Arc<SharedPrefixCache>) -> Self {
        SharedCacheSession {
            cache,
            root_fp: None,
            stats: PrefixCacheStats::default(),
            flushed: PrefixCacheStats::default(),
            sink: SinkHandle::noop(),
            sink_scope: Scope::Pipeline,
        }
    }

    /// Routes this session's counters to `sink` under `scope`, batched per
    /// materialize like the private cache's sink.
    pub fn set_sink(&mut self, sink: SinkHandle, scope: Scope) {
        self.sink = sink;
        self.sink_scope = scope;
    }

    /// Per-reduction work counters, shaped like the private cache's so the
    /// engine's reporting stays uniform. `evictions` counts edges *this
    /// session's* insertions displaced.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Materializes `candidate` against `original` through the shared
    /// cache; behaviorally identical to `apply_sequence` on a clone of
    /// `original` (and to the private cache) for any cache state.
    /// `ids[i]` must be `transformation_id(&candidate[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != candidate.len()`.
    pub fn materialize_with_ids(
        &mut self,
        original: &Context,
        candidate: &[Transformation],
        ids: &[u64],
    ) -> Materialized {
        assert_eq!(candidate.len(), ids.len(), "one id per transformation");
        self.stats.lookups += 1;
        let root_fp = *self.root_fp.get_or_insert_with(|| context_fingerprint(original));
        let mut state_fp = root_fp;
        let mut carrier = WalkCarrier::Root;
        let mut mask = Vec::with_capacity(candidate.len());
        let mut reused_any = false;
        for (t, &id) in candidate.iter().zip(ids) {
            let key = (state_fp, id);
            if let Some((snapshot, applied, fp)) = self.cache.lookup(key) {
                mask.push(applied);
                state_fp = fp;
                carrier = WalkCarrier::Cached(snapshot);
                reused_any = true;
                self.stats.transformations_saved += 1;
                continue;
            }
            let mut ctx = match carrier {
                WalkCarrier::Root => original.clone(),
                WalkCarrier::Cached(snapshot) => (*snapshot).clone(),
                WalkCarrier::Owned(ctx) => *ctx,
            };
            let applied = apply(&mut ctx, t);
            self.stats.transformations_applied += 1;
            let fp = if applied { context_fingerprint(&ctx) } else { state_fp };
            let bytes = context_size_estimate(&ctx);
            let snapshot = Arc::new(ctx);
            let outcome = self.cache.insert(key, Arc::clone(&snapshot), applied, fp, bytes);
            self.stats.evictions += outcome.evictions;
            mask.push(applied);
            state_fp = fp;
            carrier = if outcome.inserted {
                WalkCarrier::Cached(snapshot)
            } else {
                WalkCarrier::Owned(Box::new(
                    Arc::try_unwrap(snapshot).unwrap_or_else(|arc| (*arc).clone()),
                ))
            };
        }
        if reused_any {
            self.stats.hits += 1;
        }
        let context = match carrier {
            WalkCarrier::Root => original.clone(),
            WalkCarrier::Cached(snapshot) => {
                Arc::try_unwrap(snapshot).unwrap_or_else(|arc| (*arc).clone())
            }
            WalkCarrier::Owned(ctx) => *ctx,
        };
        self.flush_sink();
        Materialized { context, mask, fingerprint: Some(state_fp) }
    }

    /// Emits the session's stat deltas as volatile shared-cache counters.
    fn flush_sink(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        let scope = self.sink_scope;
        let now = self.stats;
        let prev = self.flushed;
        self.sink.count(scope, Counter::SharedCacheLookups, now.lookups - prev.lookups);
        self.sink.count(scope, Counter::SharedCacheHits, now.hits - prev.hits);
        self.sink.count(
            scope,
            Counter::SharedCacheApplications,
            now.transformations_applied - prev.transformations_applied,
        );
        self.sink.count(
            scope,
            Counter::SharedCacheSaved,
            now.transformations_saved - prev.transformations_saved,
        );
        self.sink.count(scope, Counter::SharedCacheEvictions, now.evictions - prev.evictions);
        self.flushed = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_sequence;
    use crate::fingerprint::transformation_id;
    use crate::transformations::{AddConstant, SetFunctionControl};
    use trx_ir::{ConstantValue, FunctionControl, Id, Inputs, ModuleBuilder, Type};

    fn tiny_context() -> Context {
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

    fn flips(ctx: &Context, n: usize) -> Vec<Transformation> {
        let helper = ctx
            .module
            .functions
            .iter()
            .map(|f| f.id)
            .find(|&id| id != ctx.module.entry_point)
            .unwrap();
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

    fn add_consts(ctx: &Context, n: usize) -> Vec<Transformation> {
        let t_int = ctx
            .module
            .types
            .iter()
            .find(|decl| matches!(decl.ty, Type::Int))
            .expect("tiny context declares an int type")
            .id;
        (0..n)
            .map(|i| {
                AddConstant {
                    fresh_id: Id::new(100 + i as u32),
                    ty: t_int,
                    value: ConstantValue::Int(1_000 + i as i32),
                }
                .into()
            })
            .collect()
    }

    fn reference(original: &Context, candidate: &[Transformation]) -> (Context, Vec<bool>) {
        let mut ctx = original.clone();
        let mask = apply_sequence(&mut ctx, candidate);
        (ctx, mask)
    }

    fn materialize(
        session: &mut SharedCacheSession,
        original: &Context,
        candidate: &[Transformation],
    ) -> Materialized {
        let ids: Vec<u64> = candidate.iter().map(transformation_id).collect();
        session.materialize_with_ids(original, candidate, &ids)
    }

    #[test]
    fn materialize_matches_full_replay_for_every_budget_and_shard_count() {
        let original = tiny_context();
        let sequence = flips(&original, 7);
        for budget in [0usize, 4 << 10, 1 << 20] {
            for shards in [1usize, 3, 8] {
                let cache = Arc::new(SharedPrefixCache::new(budget, shards));
                let mut session = SharedCacheSession::new(Arc::clone(&cache));
                for start in 0..sequence.len() {
                    for end in start..=sequence.len() {
                        let mut candidate = sequence[..start].to_vec();
                        candidate.extend_from_slice(&sequence[end..]);
                        let m = materialize(&mut session, &original, &candidate);
                        let (want_ctx, want_mask) = reference(&original, &candidate);
                        assert_eq!(m.mask, want_mask, "budget {budget} shards {shards}");
                        assert_eq!(m.context.module, want_ctx.module);
                        assert_eq!(m.context.facts, want_ctx.facts);
                        assert_eq!(m.fingerprint, Some(context_fingerprint(&m.context)));
                        cache.debug_check_accounting();
                    }
                }
            }
        }
    }

    #[test]
    fn sessions_share_cached_prefixes() {
        let original = tiny_context();
        let sequence = add_consts(&original, 8);
        let cache = Arc::new(SharedPrefixCache::new(1 << 22, 4));
        let mut warm = SharedCacheSession::new(Arc::clone(&cache));
        let _ = materialize(&mut warm, &original, &sequence);
        // A different session over the same original walks the warm chain
        // without applying anything.
        let mut cold = SharedCacheSession::new(Arc::clone(&cache));
        let m = materialize(&mut cold, &original, &sequence);
        assert_eq!(cold.stats().transformations_applied, 0);
        assert_eq!(cold.stats().transformations_saved, sequence.len() as u64);
        let (want, _) = reference(&original, &sequence);
        assert_eq!(m.context.module, want.module);
    }

    #[test]
    fn eviction_gives_referenced_edges_a_second_chance() {
        // One shard whose budget holds exactly three equal charges.
        let ctx = Arc::new(tiny_context());
        let cache = SharedPrefixCache::new(300, 1);
        let insert = |key: u64| cache.insert((key, 0), Arc::clone(&ctx), true, key, 100);
        for key in [1, 2, 3] {
            assert_eq!(insert(key), InsertOutcome { inserted: true, evictions: 0 });
        }
        // The hand clears every reference bit set by the inserts, then
        // evicts the oldest edge.
        assert_eq!(insert(4), InsertOutcome { inserted: true, evictions: 1 });
        assert!(cache.lookup((1, 0)).is_none(), "the oldest edge must go first");
        // A hit re-references an edge whose bit the hand just cleared, so
        // the next sweep passes over it and takes the next unreferenced
        // edge instead.
        assert!(cache.lookup((2, 0)).is_some());
        assert_eq!(insert(5), InsertOutcome { inserted: true, evictions: 1 });
        assert!(cache.lookup((3, 0)).is_none(), "the unreferenced edge must be evicted");
        for key in [2, 4, 5] {
            assert!(cache.lookup((key, 0)).is_some(), "edge {key} must stay resident");
        }
        assert_eq!(cache.stats().evictions, 2);
        cache.debug_check_accounting();
    }

    #[test]
    fn oversized_entries_are_rejected_outright() {
        let original = tiny_context();
        let sequence = add_consts(&original, 1);
        // Budget far below one context's estimate: nothing can ever be
        // admitted, and the walk still matches the reference replay.
        let cache = Arc::new(SharedPrefixCache::new(8, 1));
        let mut session = SharedCacheSession::new(Arc::clone(&cache));
        let m = materialize(&mut session, &original, &sequence);
        let (want, want_mask) = reference(&original, &sequence);
        assert_eq!(m.context.module, want.module);
        assert_eq!(m.mask, want_mask);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0);
        assert!(stats.rejected >= 1);
        assert_eq!(stats.resident_bytes, 0);
        cache.debug_check_accounting();
    }

    #[test]
    fn byte_budget_is_respected_under_replacement_churn() {
        let original = tiny_context();
        let cache = Arc::new(SharedPrefixCache::new(context_size_estimate(&original) * 8, 1));
        let mut session = SharedCacheSession::new(Arc::clone(&cache));
        // Many distinct single-step chains churn insert/evict in one shard.
        for i in 0..64u32 {
            let t: Vec<Transformation> = vec![AddConstant {
                fresh_id: Id::new(700 + i),
                ty: original.module.types[0].id,
                value: ConstantValue::Int(i as i32),
            }
            .into()];
            let _ = materialize(&mut session, &original, &t);
            cache.debug_check_accounting();
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "churn must have exercised eviction");
        assert!(stats.resident_bytes <= cache.budget_bytes() as u64);
    }
}
