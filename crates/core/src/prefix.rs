//! Prefix-memoized context snapshots for the reduction engine.
//!
//! Delta-debugging over transformation sequences (§3.4 of the paper) probes
//! candidates of the form `current[..start] ++ current[end..]`: consecutive
//! candidates share long common prefixes, and an accepted candidate becomes
//! the next round's `current`, preserving every cached prefix of it. The
//! naive engine replays the whole candidate from the original context for
//! every probe — O(probes × |sequence|) transformation applications.
//!
//! [`PrefixCache`] memoizes applied-transformation prefixes as a *chain of
//! state transitions*: an edge keyed by `(state fingerprint, transformation
//! id)` stores the context reached by applying that transformation in that
//! state, whether it applied (Definition 2.5's skip-on-failed-precondition
//! semantics), and the fingerprint of the result. Materializing a candidate
//! walks its transformations from the original context, following cached
//! edges for free and cloning-then-applying only where the walk leaves the
//! cached frontier; every newly computed step is inserted as a fresh edge.
//!
//! Keying edges by *state* rather than by literal sequence position buys
//! two sharings a flat `sequence-prefix → snapshot` map cannot express:
//!
//! * candidates that share a prefix with **any** previously materialized
//!   sequence (not just an exact stored prefix) chain through it, and
//! * removing a transformation that was a **no-op** (its precondition had
//!   already failed, or its effect was idempotent) leaves the state
//!   fingerprint unchanged, so the walk *re-joins* the cached path of the
//!   unmodified sequence and the entire suffix replays for free. These
//!   no-op removals are precisely the probes transformation-sequence
//!   reduction spends most of its budget on.
//!
//! Because [`crate::apply`] is deterministic and compositional, a cached
//! edge's context is exactly what a full replay would compute — the cache
//! is *behaviorally invisible* (assuming no 64-bit fingerprint collision,
//! the same standing assumption [`crate::context_fingerprint`] documents)
//! and changes no verdict, only the amount of work spent reaching it.
//!
//! An LRU budget bounds the number of cached edges (each holds one context
//! clone). Eviction takes the edge whose last walk is oldest, and among the
//! edges of one walk the deepest first: shallow edges root every later
//! candidate, deep ones only those sharing a long prefix. The order depends
//! on nothing but the walks, so the cache's counters repeat exactly from
//! run to run. A budget of 0 disables the cache entirely — the serial
//! reference behavior, with no fingerprint hashing on the probe path; a
//! budget of 1 still wins whenever consecutive candidates extend each
//! other.
//!
//! One cache instance serves one reduction: every `materialize` call must
//! pass the same `original` context, whose fingerprint roots the chain and
//! is computed once.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};
use trx_observe::{Counter, Scope, SinkHandle};

use crate::context::Context;
use crate::fingerprint::{context_fingerprint, transformation_id};
use crate::transformation::{apply, Transformation};

/// Running counters describing the work the cache did and avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCacheStats {
    /// `materialize` calls served.
    pub lookups: u64,
    /// Lookups that reused at least one cached transition.
    pub hits: u64,
    /// Individual transformation applications actually performed.
    pub transformations_applied: u64,
    /// Applications avoided by following cached transitions.
    pub transformations_saved: u64,
    /// Edges discarded to respect the budget.
    pub evictions: u64,
}

/// The result of [`PrefixCache::materialize_with_ids`].
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The context reached by applying the candidate to the original —
    /// identical to `apply_sequence` on a clone of the original.
    pub context: Context,
    /// Per-transformation applied mask, identical to `apply_sequence`'s.
    pub mask: Vec<bool>,
    /// Structural fingerprint of `context`, when the cache computed one
    /// (always for a non-zero budget; `None` when the cache is disabled).
    pub fingerprint: Option<u64>,
}

/// One cached state transition.
struct Edge {
    /// Context after taking this transition.
    context: Context,
    /// Whether the transformation applied (vs. skipped on a failed
    /// precondition).
    applied: bool,
    /// Fingerprint of `context`.
    fp: u64,
    /// Where this edge stands in the eviction order.
    recency: Recency,
}

/// Eviction order key: the clock value of the last walk that used or
/// created an edge, then its depth in that walk, deepest first. One walk
/// touches one edge per depth, so keys are unique.
type Recency = (u64, Reverse<usize>);

/// Where the materialization walk currently stands.
enum Carrier {
    /// Still at the original context (empty prefix so far).
    Root,
    /// On the cached chain; the keyed edge holds the current context.
    Chain((u64, u64)),
    /// Off the chain, carrying an owned context (boxed to keep the enum
    /// small; the box lives for at most one walk).
    Owned(Box<Context>),
}

/// An LRU-budgeted cache of context snapshots keyed by the
/// applied-transformation prefix that produced them, stored as shared
/// state-transition edges (see the module docs).
pub struct PrefixCache {
    budget: usize,
    clock: u64,
    root_fp: Option<u64>,
    edges: HashMap<(u64, u64), Edge>,
    /// Every edge's key by [`Recency`]: the first entry is evicted next.
    order: BTreeMap<Recency, (u64, u64)>,
    stats: PrefixCacheStats,
    sink: SinkHandle,
    sink_scope: Scope,
    /// Stats already reported to the sink; deltas are emitted per
    /// materialize so the hot loop never touches the sink per edge.
    flushed: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates a cache holding at most `budget` transition edges (0
    /// disables caching).
    #[must_use]
    pub fn new(budget: usize) -> Self {
        PrefixCache {
            budget,
            clock: 0,
            root_fp: None,
            edges: HashMap::new(),
            order: BTreeMap::new(),
            stats: PrefixCacheStats::default(),
            sink: SinkHandle::noop(),
            sink_scope: Scope::Pipeline,
            flushed: PrefixCacheStats::default(),
        }
    }

    /// Routes this cache's counters to `sink` under `scope`. Counter deltas
    /// are batched per [`PrefixCache::materialize_with_ids`] call, so an
    /// enabled sink costs one batch of events per probe, not per edge.
    pub fn set_sink(&mut self, sink: SinkHandle, scope: Scope) {
        self.sink = sink;
        self.sink_scope = scope;
    }

    /// The edge budget this cache was created with.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Cumulative work counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Like [`PrefixCache::materialize_with_ids`], computing the
    /// transformation ids on the fly. Callers probing many candidates over
    /// the same sequence should precompute ids once (via
    /// [`crate::transformation_id`]) and use the `_with_ids` variant.
    pub fn materialize(
        &mut self,
        original: &Context,
        candidate: &[Transformation],
    ) -> (Context, Vec<bool>) {
        let ids: Vec<u64> = candidate.iter().map(transformation_id).collect();
        let m = self.materialize_with_ids(original, candidate, &ids);
        (m.context, m.mask)
    }

    /// Returns the context reached by applying `candidate` to `original`,
    /// together with the per-transformation applied mask — identical to
    /// `apply_sequence` on a clone of `original`, but following cached
    /// transition edges wherever the walk stays on previously materialized
    /// ground. `ids[i]` must be `transformation_id(&candidate[i])`.
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
        if self.budget == 0 {
            let mut ctx = original.clone();
            self.stats.transformations_applied += candidate.len() as u64;
            let mask = candidate.iter().map(|t| apply(&mut ctx, t)).collect();
            self.flush_sink();
            return Materialized { context: ctx, mask, fingerprint: None };
        }
        self.clock += 1;
        let clock = self.clock;
        let root_fp = *self.root_fp.get_or_insert_with(|| context_fingerprint(original));

        let mut state_fp = root_fp;
        let mut carrier = Carrier::Root;
        let mut mask = Vec::with_capacity(candidate.len());
        let mut reused_any = false;
        for (depth, (t, &id)) in candidate.iter().zip(ids).enumerate() {
            let key = (state_fp, id);
            let recency = (clock, Reverse(depth));
            if let Some(edge) = self.edges.get_mut(&key) {
                // On (or re-joining) the cached frontier: the edge stands
                // in for the application, whatever carrier we arrived with.
                self.order.remove(&edge.recency);
                self.order.insert(recency, key);
                edge.recency = recency;
                mask.push(edge.applied);
                state_fp = edge.fp;
                carrier = Carrier::Chain(key);
                reused_any = true;
                self.stats.transformations_saved += 1;
                continue;
            }
            let mut ctx = match carrier {
                Carrier::Root => original.clone(),
                Carrier::Chain(k) => self.edges[&k].context.clone(),
                Carrier::Owned(ctx) => *ctx,
            };
            let applied = apply(&mut ctx, t);
            self.stats.transformations_applied += 1;
            // A skipped transformation leaves the context — and therefore
            // its fingerprint — untouched.
            let fp = if applied { context_fingerprint(&ctx) } else { state_fp };
            self.insert(key, Edge { context: ctx.clone(), applied, fp, recency });
            mask.push(applied);
            state_fp = fp;
            carrier = Carrier::Owned(Box::new(ctx));
        }
        if reused_any {
            self.stats.hits += 1;
        }
        let context = match carrier {
            Carrier::Root => original.clone(),
            Carrier::Chain(k) => self.edges[&k].context.clone(),
            Carrier::Owned(ctx) => *ctx,
        };
        self.flush_sink();
        Materialized { context, mask, fingerprint: Some(state_fp) }
    }

    /// Emits the stat deltas accumulated since the last flush.
    fn flush_sink(&mut self) {
        if !self.sink.enabled() {
            return;
        }
        let scope = self.sink_scope;
        let now = self.stats;
        let prev = self.flushed;
        self.sink.count(scope, Counter::CacheLookups, now.lookups - prev.lookups);
        self.sink.count(scope, Counter::CacheHits, now.hits - prev.hits);
        self.sink.count(
            scope,
            Counter::CacheApplications,
            now.transformations_applied - prev.transformations_applied,
        );
        self.sink.count(
            scope,
            Counter::CacheSaved,
            now.transformations_saved - prev.transformations_saved,
        );
        self.sink.count(scope, Counter::CacheEvictions, now.evictions - prev.evictions);
        self.flushed = now;
    }

    fn insert(&mut self, key: (u64, u64), edge: Edge) {
        let recency = edge.recency;
        if let Some(old) = self.edges.insert(key, edge) {
            self.order.remove(&old.recency);
        }
        self.order.insert(recency, key);
        while self.edges.len() > self.budget {
            let (_, victim) = self
                .order
                .pop_first()
                .expect("an over-budget cache orders every edge");
            self.edges.remove(&victim);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_sequence;
    use crate::transformations::{AddConstant, SetFunctionControl};
    use crate::Context;
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

    /// Distinct `AddConstant`s: every prefix reaches a distinct state, so
    /// the edge chain never merges branches.
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

    #[test]
    fn materialize_matches_full_replay_for_every_budget() {
        let original = tiny_context();
        let sequence = flips(&original, 9);
        for budget in [0usize, 1, 2, 64] {
            let mut cache = PrefixCache::new(budget);
            // Walk a DD-like candidate schedule: removals of each chunk.
            for start in 0..sequence.len() {
                for end in start..=sequence.len() {
                    let mut candidate = sequence[..start].to_vec();
                    candidate.extend_from_slice(&sequence[end..]);
                    let (ctx, mask) = cache.materialize(&original, &candidate);
                    let (want_ctx, want_mask) = reference(&original, &candidate);
                    assert_eq!(mask, want_mask, "budget {budget} start {start} end {end}");
                    assert_eq!(
                        ctx.module, want_ctx.module,
                        "budget {budget} start {start} end {end}"
                    );
                    assert_eq!(ctx.facts, want_ctx.facts);
                }
            }
        }
    }

    #[test]
    fn reported_fingerprint_matches_context_fingerprint() {
        let original = tiny_context();
        let sequence = flips(&original, 6);
        let ids: Vec<u64> = sequence.iter().map(transformation_id).collect();
        let mut cache = PrefixCache::new(16);
        for end in 0..=sequence.len() {
            let m = cache.materialize_with_ids(&original, &sequence[..end], &ids[..end]);
            assert_eq!(m.fingerprint, Some(context_fingerprint(&m.context)), "prefix {end}");
        }
    }

    #[test]
    fn growing_prefixes_hit_the_cache() {
        let original = tiny_context();
        let sequence = add_consts(&original, 8);
        let mut cache = PrefixCache::new(16);
        let _ = cache.materialize(&original, &sequence[..4]);
        let before = cache.stats();
        let _ = cache.materialize(&original, &sequence[..6]);
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.transformations_saved, before.transformations_saved + 4);
        assert_eq!(after.transformations_applied, before.transformations_applied + 2);
    }

    #[test]
    fn removing_a_noop_rejoins_the_cached_path() {
        let original = tiny_context();
        // Duplicating an AddConstant makes the duplicate a no-op: its fresh
        // id is no longer fresh, so the precondition fails and the context
        // (and its fingerprint) is unchanged.
        let mut sequence = add_consts(&original, 6);
        sequence.insert(3, sequence[2].clone());
        let mut cache = PrefixCache::new(64);
        let _ = cache.materialize(&original, &sequence);
        let before = cache.stats();
        // Remove the no-op duplicate: the walk chains the shared prefix,
        // sees an unchanged state fingerprint where the duplicate vanished,
        // and re-joins the full sequence's cached suffix — zero new
        // applications.
        let mut candidate = sequence.clone();
        candidate.remove(3);
        let (ctx, _) = cache.materialize(&original, &candidate);
        let after = cache.stats();
        assert_eq!(
            after.transformations_applied, before.transformations_applied,
            "a no-op removal must replay entirely from cache"
        );
        assert_eq!(after.transformations_saved, before.transformations_saved + 6);
        let (want, _) = reference(&original, &candidate);
        assert_eq!(ctx.module, want.module);
    }

    #[test]
    fn budget_zero_never_stores_anything() {
        let original = tiny_context();
        let sequence = flips(&original, 5);
        let mut cache = PrefixCache::new(0);
        let _ = cache.materialize(&original, &sequence);
        let _ = cache.materialize(&original, &sequence);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.transformations_saved, 0);
        assert_eq!(stats.transformations_applied, 10);
    }

    #[test]
    fn eviction_is_deterministic() {
        // A budget below one walk's length makes walks evict edges that
        // share one clock value, so the tie-break alone decides which
        // prefixes later candidates find cached.
        let original = tiny_context();
        let sequence = add_consts(&original, 12);
        let run = || {
            let mut cache = PrefixCache::new(6);
            for _ in 0..4 {
                for len in [12, 6, 9, 3] {
                    let _ = cache.materialize(&original, &sequence[..len]);
                }
            }
            cache.stats()
        };
        let first = run();
        assert!(first.evictions > 0 && first.hits > 0, "{first:?}");
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn eviction_takes_the_deepest_edge_of_the_oldest_walk() {
        let original = tiny_context();
        let sequence = add_consts(&original, 4);
        let mut cache = PrefixCache::new(3);
        // Walk 1 caches depths 0, 1 and 2. Walk 2 reuses depth 0 and adds
        // a new depth-1 edge, evicting walk 1's deepest edge (depth 2)
        // rather than its depth-1 edge.
        let _ = cache.materialize(&original, &sequence[..3]);
        let _ = cache.materialize(&original, &[sequence[0].clone(), sequence[3].clone()]);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats();
        let _ = cache.materialize(&original, &sequence[..2]);
        let after = cache.stats();
        assert_eq!(after.transformations_saved, before.transformations_saved + 2);
        assert_eq!(after.transformations_applied, before.transformations_applied);
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let original = tiny_context();
        let sequence = flips(&original, 6);
        let mut cache = PrefixCache::new(1);
        let _ = cache.materialize(&original, &sequence[..2]);
        let _ = cache.materialize(&original, &sequence[..4]);
        assert!(cache.edges.len() <= 1);
        assert!(cache.stats().evictions >= 1);
    }
}
