//! Equivalence proptests for the prefix-memoized reduction engine.
//!
//! The engine's caching layers must be *behaviorally invisible*: for every
//! cache budget (including 0 and 1), and — for deterministic probes — with
//! verdict memoization or a seeded initial context, a
//! reduction must produce a byte-identical [`ReductionLog`], reduced
//! sequence, [`trx_reducer::ReductionStats`], and final context compared
//! to the serial budget-0 reference engine. Resume from any journal
//! prefix must land on the same bytes too.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use trx_core::transformations::{AddConstant, SetFunctionControl};
use trx_core::{context_fingerprint, Context, SharedPrefixCache, Transformation};
use trx_ir::{ConstantValue, FunctionControl, Id, Inputs, ModuleBuilder, Type};
use trx_observe::{Counter, MetricsReport, RecordingSink, Scope, SinkHandle};
use trx_reducer::{
    JournaledReduction, ProbeFault, Reducer, ReducerOptions, ReductionLog,
};

/// A fresh deterministic-mode recording sink plus its handle.
fn recording() -> (Arc<RecordingSink>, SinkHandle) {
    let sink = Arc::new(RecordingSink::deterministic());
    let handle = SinkHandle::new(sink.clone());
    (sink, handle)
}

/// The logical (engine-independent) reduction counters of a snapshot: any
/// two engines that claim byte-equivalence must agree on all of these.
fn logical_counters(snapshot: &MetricsReport) -> [u64; 5] {
    [
        snapshot.total(Counter::TestsRun),
        snapshot.total(Counter::ChunksRemoved),
        snapshot.total(Counter::PayloadInstructionsRemoved),
        snapshot.total(Counter::ProbeFaults),
        snapshot.total(Counter::PoisonedQueries),
    ]
}

/// Entry point plus one helper function whose inline control the flip
/// transformations toggle.
fn base_context() -> Context {
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

/// Decodes sampled genes into a transformation sequence mixing
/// state-toggling flips (whose removal is often a no-op), distinct
/// `AddConstant`s (effective — their removal changes the module), and
/// colliding `AddConstant`s (duplicates are skipped by precondition, so
/// both their application and their removal are no-ops).
fn decode(ctx: &Context, genes: &[u8]) -> Vec<Transformation> {
    let helper = ctx
        .module
        .functions
        .iter()
        .map(|f| f.id)
        .find(|&id| id != ctx.module.entry_point)
        .unwrap();
    let t_int = ctx
        .module
        .types
        .iter()
        .find(|decl| matches!(decl.ty, Type::Int))
        .unwrap()
        .id;
    genes
        .iter()
        .enumerate()
        .map(|(i, &g)| match g % 4 {
            0 => AddConstant {
                fresh_id: Id::new(200 + i as u32),
                ty: t_int,
                value: ConstantValue::Int(10_000 + i as i32),
            }
            .into(),
            1 => SetFunctionControl { function: helper, control: FunctionControl::DontInline }
                .into(),
            2 => SetFunctionControl { function: helper, control: FunctionControl::Inline }
                .into(),
            // Deliberately colliding fresh ids: only the first of each
            // collision group applies, the rest skip.
            _ => AddConstant {
                fresh_id: Id::new(900 + u32::from(g) % 3),
                ty: t_int,
                value: ConstantValue::Int(20_000 + i32::from(g) % 3),
            }
            .into(),
        })
        .collect()
}

/// Byte-level comparison of two journaled reductions (everything except
/// [`trx_reducer::EngineStats`], which legitimately differs between
/// engines that are otherwise byte-identical).
fn assert_same(
    label: &str,
    got: &JournaledReduction,
    want: &JournaledReduction,
) -> Result<(), String> {
    if got.log != want.log {
        return Err(format!("{label}: logs differ\n got {:?}\nwant {:?}", got.log, want.log));
    }
    if got.reduction.sequence != want.reduction.sequence {
        return Err(format!("{label}: reduced sequences differ"));
    }
    if got.reduction.stats != want.reduction.stats {
        return Err(format!(
            "{label}: stats differ\n got {:?}\nwant {:?}",
            got.reduction.stats, want.reduction.stats
        ));
    }
    if got.reduction.context.module != want.reduction.context.module {
        return Err(format!("{label}: final modules differ"));
    }
    if got.reduction.context.facts != want.reduction.context.facts {
        return Err(format!("{label}: final fact stores differ"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_memoized_and_seeded_engines_match_serial(
        genes in vec(0u8..=15, 0..=18),
        fault_salt in 0u64..=u64::MAX,
        fault_every in 0u64..=6,
        knobs in 0u32..=11,
    ) {
        let original = base_context();
        let sequence = decode(&original, &genes);

        // The oracle demands every effective AddConstant survive: the full
        // sequence is interesting, flip/duplicate removals are accepted,
        // effective-constant removals are rejected.
        let variant = {
            let mut full = original.clone();
            trx_core::apply_sequence(&mut full, &sequence);
            full
        };
        let needed = variant.module.constants.len();
        // Deterministic per-context fault plan: some candidate contexts
        // always fault (and therefore poison-quarantine), the rest answer.
        let probe = move |ctx: &Context| -> Result<bool, ProbeFault> {
            if fault_every > 0
                && (context_fingerprint(ctx) ^ fault_salt).is_multiple_of(fault_every + 3)
            {
                return Err(ProbeFault("planned fault".into()));
            }
            Ok(ctx.module.constants.len() >= needed)
        };

        let (votes_required, votes) = if knobs.is_multiple_of(2) { (1, 1) } else { (2, 3) };
        let max_tests = if knobs.is_multiple_of(3) { 7 } else { 100_000 };
        let base_opts = ReducerOptions {
            shrink_added_functions: false,
            max_tests,
            poison_retries: 2,
            prefix_cache_budget: 0,
            memoize_verdicts: false,
            ..ReducerOptions::default()
        }
        .with_votes(votes_required, votes);

        let run_observed = |opts: ReducerOptions, handle: SinkHandle| {
            Reducer::new(opts).with_sink(handle, Scope::Reduction(0)).reduce_journaled(
                &original,
                &sequence,
                &ReductionLog::new(),
                probe,
                |_, _| {},
            )
        };
        let run_serial = |opts: ReducerOptions| run_observed(opts, SinkHandle::noop());

        let (reference_sink, reference_handle) = recording();
        let reference = run_observed(base_opts, reference_handle);
        let reference_metrics = reference_sink.snapshot();
        prop_assert_eq!(
            reference_metrics.total(Counter::TestsRun) as usize,
            reference.reduction.stats.tests_run,
            "sink and stats disagree on tests_run"
        );
        // Without memo or replayed prefix, every journal
        // record is one live oracle invocation (faulted attempts included).
        prop_assert_eq!(
            reference_metrics.total(Counter::LiveProbes) as usize,
            reference.log.len(),
            "serial run: every probe invocation is live"
        );

        // Every cache budget is behaviorally invisible; the verdict memo is
        // an exact optimization for this (deterministic) probe.
        for budget in [1usize, 4, 64] {
            let (sink, handle) = recording();
            let got =
                run_observed(ReducerOptions { prefix_cache_budget: budget, ..base_opts }, handle);
            assert_same(&format!("budget {budget}"), &got, &reference)?;
            prop_assert!(
                got.reduction.engine.cache.transformations_applied
                    <= reference.reduction.engine.cache.transformations_applied,
                "budget {budget}: cache increased work"
            );
            let metrics = sink.snapshot();
            prop_assert_eq!(
                logical_counters(&metrics),
                logical_counters(&reference_metrics),
                "budget {}: logical counters diverged from serial", budget
            );
            // Counter-level cache oracle: whenever the whole sequence fits
            // in the cache, the search did real work (some chunk was
            // removed), and the sequence is long enough for a removal
            // candidate to share a nonempty prefix with the cached full
            // sequence, the cache must have hit at least once.
            if budget >= sequence.len()
                && sequence.len() >= 3
                && got.reduction.stats.chunks_removed > 0
            {
                prop_assert!(
                    metrics.total(Counter::CacheHits) > 0,
                    "budget {}: cache never hit on a reducible sequence", budget
                );
            }
        }
        let (memo_sink, memo_handle) = recording();
        let memo = run_observed(
            ReducerOptions { prefix_cache_budget: 64, memoize_verdicts: true, ..base_opts },
            memo_handle,
        );
        assert_same("memo", &memo, &reference)?;
        let memo_metrics = memo_sink.snapshot();
        prop_assert_eq!(
            logical_counters(&memo_metrics),
            logical_counters(&reference_metrics),
            "memo: logical counters diverged from serial"
        );
        // The memo conservation law: every query the memo answers is one
        // live probe the serial engine performed, one for one.
        prop_assert_eq!(
            memo_metrics.total(Counter::LiveProbes) + memo_metrics.total(Counter::MemoHits),
            reference_metrics.total(Counter::LiveProbes),
            "memo hits and live probes must partition the serial probe count"
        );

        // Seeding the engine with the pre-built variant context skips the
        // initial full-sequence replay but must not move a single byte.
        let seeded = Reducer::new(ReducerOptions {
            prefix_cache_budget: 64,
            memoize_verdicts: true,
            ..base_opts
        })
        .reduce_journaled_seeded(
            &original,
            &sequence,
            &variant,
            &ReductionLog::new(),
            probe,
            |_, _| {},
        );
        assert_same("seeded", &seeded, &reference)?;

        // Kill/resume: replaying any journal prefix of the memoized run
        // reproduces the remaining records bit-identically.
        let golden = run_serial(ReducerOptions {
            prefix_cache_budget: 64,
            memoize_verdicts: true,
            ..base_opts
        });
        let cut = (fault_salt % (golden.log.len() as u64 + 1)) as usize;
        let prefix = ReductionLog { records: golden.log.records[..cut].to_vec() };
        let resumed = Reducer::new(ReducerOptions {
            prefix_cache_budget: 64,
            memoize_verdicts: true,
            ..base_opts
        })
        .reduce_journaled(&original, &sequence, &prefix, probe, |_, _| {});
        assert_same(&format!("resume cut {cut}"), &resumed, &golden)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole determinism contract: any number of reducers sharing
    /// one sharded prefix cache must each produce a reduction
    /// byte-identical to the serial budget-0 reference — cache *contents*
    /// may depend on thread timing, reduced *outputs* may not. Exercised at
    /// 1, 4 and 8 concurrent reducers over roomy and deliberately
    /// pathological budgets (1 byte rejects every insert, 2 KiB churns
    /// evictions), plus kill/resume against a cache warmed by a previous
    /// incarnation.
    #[test]
    fn shared_cache_reducers_match_serial_at_1_4_and_8_threads(
        genes in vec(0u8..=15, 0..=14),
        fault_salt in 0u64..=u64::MAX,
        fault_every in 0u64..=6,
        budget_pick in 0usize..4,
        shards in 1usize..5,
    ) {
        let original = base_context();
        let sequence = decode(&original, &genes);
        let needed = {
            let mut full = original.clone();
            trx_core::apply_sequence(&mut full, &sequence);
            full.module.constants.len()
        };
        let probe = move |ctx: &Context| -> Result<bool, ProbeFault> {
            if fault_every > 0
                && (context_fingerprint(ctx) ^ fault_salt).is_multiple_of(fault_every + 3)
            {
                return Err(ProbeFault("planned fault".into()));
            }
            Ok(ctx.module.constants.len() >= needed)
        };
        let opts = ReducerOptions {
            shrink_added_functions: false,
            poison_retries: 2,
            prefix_cache_budget: 0,
            ..ReducerOptions::default()
        };
        let reference = Reducer::new(opts).reduce_journaled(
            &original,
            &sequence,
            &ReductionLog::new(),
            probe,
            |_, _| {},
        );

        let budget = [1usize, 2048, 64 << 10, 1 << 20][budget_pick];
        for threads in [1usize, 4, 8] {
            let cache = Arc::new(SharedPrefixCache::new(budget, shards));
            let results: Vec<JournaledReduction> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let cache = Arc::clone(&cache);
                        let original = &original;
                        let sequence = &sequence;
                        s.spawn(move || {
                            Reducer::new(opts).with_shared_cache(cache).reduce_journaled(
                                original,
                                sequence,
                                &ReductionLog::new(),
                                probe,
                                |_, _| {},
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("reducer panicked")).collect()
            });
            for (i, got) in results.iter().enumerate() {
                assert_same(&format!("threads {threads} reducer {i} budget {budget}"), got, &reference)?;
            }
            cache.debug_check_accounting();
        }

        // Kill/resume with the shared cache enabled: resuming from any
        // journal prefix against an already-warm cache reproduces the
        // golden bytes and the exact journal suffix.
        let cache = Arc::new(SharedPrefixCache::new(budget, shards.max(2)));
        let _ = Reducer::new(opts)
            .with_shared_cache(Arc::clone(&cache))
            .reduce_journaled(&original, &sequence, &ReductionLog::new(), probe, |_, _| {});
        let cut = (fault_salt % (reference.log.len() as u64 + 1)) as usize;
        let prefix = ReductionLog { records: reference.log.records[..cut].to_vec() };
        let resumed = Reducer::new(opts)
            .with_shared_cache(Arc::clone(&cache))
            .reduce_journaled(&original, &sequence, &prefix, probe, |_, _| {});
        assert_same(&format!("shared resume cut {cut}"), &resumed, &reference)?;
        cache.debug_check_accounting();
    }
}

/// Longer sequences where reduction does real work: the cached engine must
/// apply strictly fewer transformations than the budget-0 reference.
#[test]
fn cache_strictly_reduces_applications_on_reducible_sequences() {
    let original = base_context();
    let genes: Vec<u8> = (0..24u8).map(|i| [1, 2, 3, 0][usize::from(i) % 4]).collect();
    let sequence = decode(&original, &genes);
    let needed = {
        let mut full = original.clone();
        trx_core::apply_sequence(&mut full, &sequence);
        full.module.constants.len()
    };
    let probe =
        move |ctx: &Context| -> Result<bool, ProbeFault> { Ok(ctx.module.constants.len() >= needed) };
    let run = |budget: usize| {
        let (sink, handle) = recording();
        let out = Reducer::new(ReducerOptions {
            shrink_added_functions: false,
            prefix_cache_budget: budget,
            ..ReducerOptions::default()
        })
        .with_sink(handle, Scope::Reduction(0))
        .reduce_journaled(&original, &sequence, &ReductionLog::new(), probe, |_, _| {});
        (out, sink.snapshot())
    };
    let (serial, serial_metrics) = run(0);
    let (cached, cached_metrics) = run(256);
    assert_eq!(serial.log, cached.log);
    assert_eq!(serial.reduction.sequence, cached.reduction.sequence);
    let serial_applied = serial.reduction.engine.cache.transformations_applied;
    let cached_applied = cached.reduction.engine.cache.transformations_applied;
    assert!(
        cached_applied < serial_applied,
        "cache saved nothing: {cached_applied} vs {serial_applied}"
    );
    assert!(cached.reduction.engine.cache.hits > 0);

    // The recorded counters mirror the engine's own statistics exactly.
    assert_eq!(logical_counters(&cached_metrics), logical_counters(&serial_metrics));
    assert_eq!(
        cached_metrics.total(Counter::CacheHits),
        cached.reduction.engine.cache.hits
    );
    assert_eq!(
        cached_metrics.total(Counter::CacheApplications),
        cached.reduction.engine.cache.transformations_applied
    );
    assert_eq!(
        cached_metrics.total(Counter::CacheSaved),
        cached.reduction.engine.cache.transformations_saved
    );
    assert!(cached_metrics.total(Counter::CacheSaved) > 0, "cache saved no applications");
}

/// The memo answers repeat contexts without consulting the oracle: on a
/// sequence full of no-op removals, a memoized run performs strictly fewer
/// live probe invocations for the same journal.
#[test]
fn memo_skips_live_probes_for_repeat_contexts() {
    let original = base_context();
    // All genes collide: most transformations are precondition-failed
    // no-ops, so most candidates normalize to already-seen contexts.
    let genes: Vec<u8> = (0..20u8).map(|i| [3, 7, 11, 1][usize::from(i) % 4]).collect();
    let sequence = decode(&original, &genes);
    let needed = {
        let mut full = original.clone();
        trx_core::apply_sequence(&mut full, &sequence);
        full.module.constants.len()
    };
    let run = |memoize: bool| {
        let mut live = 0usize;
        let (sink, handle) = recording();
        let out = Reducer::new(ReducerOptions {
            shrink_added_functions: false,
            memoize_verdicts: memoize,
            ..ReducerOptions::default()
        })
        .with_sink(handle, Scope::Reduction(0))
        .reduce_journaled(
            &original,
            &sequence,
            &ReductionLog::new(),
            |ctx| {
                live += 1;
                Ok(ctx.module.constants.len() >= needed)
            },
            |_, _| {},
        );
        (out, live, sink.snapshot())
    };
    let (plain, plain_live, plain_metrics) = run(false);
    let (memoized, memo_live, memo_metrics) = run(true);
    assert_eq!(plain.log, memoized.log, "memo must not change the journal");
    assert_eq!(plain.reduction.sequence, memoized.reduction.sequence);
    assert_eq!(plain.reduction.stats, memoized.reduction.stats);
    assert!(
        memo_live < plain_live,
        "memo never hit: {memo_live} live probes vs {plain_live}"
    );
    assert!(memoized.reduction.engine.memo_hits > 0);
    assert_eq!(
        memo_live as u64 + memoized.reduction.engine.memo_hits,
        plain_live as u64,
        "every skipped live probe must be a memo hit"
    );

    // The same conservation law, read back from the recorded counters: the
    // sink's live-probe count matches the hand count on both runs, and
    // memoized probes plus memo hits partition the plain run's traffic.
    assert_eq!(plain_metrics.total(Counter::LiveProbes), plain_live as u64);
    assert_eq!(memo_metrics.total(Counter::LiveProbes), memo_live as u64);
    assert_eq!(memo_metrics.total(Counter::MemoHits), memoized.reduction.engine.memo_hits);
    assert_eq!(
        memo_metrics.total(Counter::LiveProbes) + memo_metrics.total(Counter::MemoHits),
        plain_metrics.total(Counter::LiveProbes),
    );
    assert_eq!(memo_metrics.total(Counter::TestsRun), plain_metrics.total(Counter::TestsRun));
}
