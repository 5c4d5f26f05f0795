//! Perf triage: benchmarks the prefix-memoized reduction engine on a real
//! triage workload and writes `BENCH_perf.json`.
//!
//! The workload is the pipeline's own: run a campaign of generated tests
//! against the clean target catalog, collect one bug per distinct
//! `(target, signature)` pair, and reduce each bug's transformation
//! sequence. Probes run exactly the pipeline's oracle path — the reference
//! side served once per reduction from a [`ReferenceOracle`], the variant
//! side compiled and executed live by a plain catalog [`Target`], whose
//! compiled code runs on the fast pre-decoded interpreter (the only engine
//! `Target::execute` uses) — so the recorded wall-clocks measure the engine
//! the pipeline actually ships. Every bug is reduced under four
//! configurations:
//!
//! 1. **serial** — prefix-cache budget 0, no verdict memo: the reference
//!    engine, which replays each candidate prefix with a fresh
//!    `apply_sequence` (quadratic in sequence length);
//! 2. **cached** — the per-reduction prefix cache plus the verdict memo;
//! 3. **shared** — one sharded byte-budgeted [`SharedPrefixCache`] across
//!    *all* bugs: sibling reductions walk each other's transition chains
//!    instead of re-warming private caches;
//! 4. **parallel** — the cached engine with bugs reduced *concurrently*
//!    on a worker pool as wide as the host's available parallelism (the
//!    pipeline's `reduction_threads` mode); only its wall-clock is
//!    recorded.
//!
//! The binary asserts the engine's contract before writing the baseline:
//! all configurations must produce byte-identical reduction logs, reduced
//! sequences, search statistics, and final modules; the cached engine must
//! perform *strictly fewer* transformation applications than the serial
//! reference; and probe accounting must balance — on the serial row every
//! cache lookup is either journaled or explicitly counted unprobed
//! (`cache.lookups == probes_journaled + unprobed_lookups`; seeded rows
//! journal one extra initial record per bug with no lookup). Any violation
//! exits nonzero, so CI runs this in smoke mode (`--tests 8`) as a
//! regression gate. Wall-clocks are reported, never gated: shared CI
//! runners make timing gates flaky by design.
//!
//! Campaign tests are deepened by chaining `--rounds` fuzzer runs end to
//! end (each round fuzzes the previous round's variant, concatenating the
//! transformation sequences), reproducing the long sequences — hundreds of
//! transformations — that spirv-fuzz produces in practice and that make
//! full-replay reduction quadratic.
//!
//! Usage: `perf_triage [--tests N] [--rounds R] [--seed S]
//! [--cache-budget E] [--cache-budget-bytes B] [--cache-shards S]
//! [--out FILE] [--metrics-out FILE]`
//!
//! `--metrics-out FILE` runs one extra *untimed* pass over the triage set
//! with a deterministic-mode [`trx_observe::RecordingSink`] attached to
//! the cached engine and writes the snapshot as JSON. The timed stages
//! always run with the no-op sink, so the flag cannot perturb the
//! recorded wall-clock numbers.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use trx_bench::perf::{accumulate, EngineBaseline, PerfBaseline};
use trx_bench::{arg_string, arg_u64, arg_usize, render_table};
use trx_core::{Context, SharedPrefixCache};
use trx_fuzzer::{Fuzzer, FuzzerOptions};
use trx_harness::campaign::{classify, generate_test, BugSignature, GeneratedTest, Tool};
use trx_harness::corpus::donor_modules;
use trx_harness::{attempt_classify_cached, Attempt, ReferenceOracle};
use trx_observe::{RecordingSink, Scope, SinkHandle};
use trx_pool::with_pool;
use trx_reducer::{
    EngineStats, JournaledReduction, ProbeFault, Reducer, ReducerOptions, ReductionLog,
};
use trx_targets::{catalog, Target};

/// One reduction problem: a campaign bug with its generating test.
struct Problem {
    test: GeneratedTest,
    target_index: usize,
    signature: BugSignature,
}

/// The pipeline's interestingness oracle: does the variant still trigger
/// the exact signature on the bug's target? The fixed reference side is
/// served from `oracle` (one execution per reduction); the variant runs
/// live on the fast interpreter every time. Counts live invocations.
fn make_probe<'a>(
    targets: &'a Arc<Vec<Target>>,
    problem: &'a Problem,
    oracle: &'a ReferenceOracle,
    live: &'a AtomicU64,
) -> impl Fn(&Context) -> Result<bool, ProbeFault> + Send + Sync + 'a {
    move |variant: &Context| {
        live.fetch_add(1, Ordering::Relaxed);
        match attempt_classify_cached(
            problem.test.tool,
            &targets[problem.target_index],
            oracle,
            &variant.module,
            &SinkHandle::noop(),
            Scope::Reduction(0),
        ) {
            Attempt::Signature(signature) => {
                Ok(signature.as_ref() == Some(&problem.signature))
            }
            Attempt::Hang => Err(ProbeFault("interpreter fuel budget exhausted".to_owned())),
            Attempt::Panicked(message) => Err(ProbeFault(message)),
        }
    }
}

/// Reduces every problem back to back with one engine configuration. A
/// seeded run hands the fuzzer's own variant context to the engine (the
/// pipeline's mode); the unseeded reference replays the full sequence for
/// the initial check, as the pre-cache engine did. When `shared` is given,
/// every reducer walks that cache instead of a private one.
fn reduce_all(
    problems: &[Problem],
    targets: &Arc<Vec<Target>>,
    options: ReducerOptions,
    seeded: bool,
    shared: Option<&Arc<SharedPrefixCache>>,
    live: &AtomicU64,
) -> Vec<JournaledReduction> {
    problems
        .iter()
        .map(|p| {
            let oracle = ReferenceOracle::new(p.test.tool, &p.test.original);
            let probe = make_probe(targets, p, &oracle, live);
            let mut reducer = Reducer::new(options);
            if let Some(cache) = shared {
                reducer = reducer.with_shared_cache(Arc::clone(cache));
            }
            if seeded {
                reducer.reduce_journaled_seeded(
                    &p.test.original,
                    &p.test.transformations,
                    &p.test.variant,
                    &ReductionLog::new(),
                    probe,
                    |_, _| {},
                )
            } else {
                reducer.reduce_journaled(
                    &p.test.original,
                    &p.test.transformations,
                    &ReductionLog::new(),
                    probe,
                    |_, _| {},
                )
            }
        })
        .collect()
}

/// Sums one configuration's run into the baseline schema.
fn summarize(
    name: &str,
    runs: &[JournaledReduction],
    live: &AtomicU64,
    wall_ms: u64,
) -> EngineBaseline {
    let mut engine = EngineStats::default();
    for run in runs {
        accumulate(&mut engine, &run.reduction.engine);
    }
    EngineBaseline {
        name: name.to_owned(),
        probes_journaled: runs.iter().map(|r| r.log.len() as u64).sum(),
        live_probes: live.load(Ordering::Relaxed),
        engine,
        wall_ms,
    }
}

/// The probe-accounting balance: every cache lookup is either journaled or
/// counted unprobed. Seeded runs journal one extra initial record per bug
/// with no lookup behind it, so the journal side subtracts one per bug.
fn lookup_gap(row: &EngineBaseline, seeded_bugs: u64) -> i128 {
    i128::from(row.engine.cache.lookups)
        - (i128::from(row.probes_journaled) - i128::from(seeded_bugs)
            + i128::from(row.engine.unprobed_lookups))
}

/// Byte-level equivalence of two runs over the same problem list.
fn same(label: &str, got: &[JournaledReduction], want: &[JournaledReduction]) -> bool {
    let mut ok = true;
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.log != w.log {
            eprintln!("FAIL: {label}: bug {i} journal diverged");
            ok = false;
        }
        if g.reduction.sequence != w.reduction.sequence {
            eprintln!("FAIL: {label}: bug {i} reduced sequence diverged");
            ok = false;
        }
        if g.reduction.stats != w.reduction.stats {
            eprintln!("FAIL: {label}: bug {i} search stats diverged");
            ok = false;
        }
        if g.reduction.context.module != w.reduction.context.module {
            eprintln!("FAIL: {label}: bug {i} final module diverged");
            ok = false;
        }
        if g.reduction.context.facts != w.reduction.context.facts {
            eprintln!("FAIL: {label}: bug {i} final fact store diverged");
            ok = false;
        }
    }
    ok
}

/// Chains `rounds` fuzzer runs: each round fuzzes the previous variant and
/// the transformation sequences concatenate, so replaying the combined
/// sequence on the original reproduces the final variant.
fn deep_test(
    tool: Tool,
    seed: u64,
    rounds: usize,
    donors: &[trx_ir::Module],
) -> GeneratedTest {
    let mut test = generate_test(tool, seed, donors);
    for round in 1..rounds {
        let round_seed = seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let result =
            Fuzzer::new(FuzzerOptions::default()).run(test.variant.clone(), donors, round_seed);
        test.variant = result.context;
        test.transformations.extend(result.transformations);
    }
    test
}

fn main() {
    let tests = arg_usize("--tests", 12);
    let rounds = arg_usize("--rounds", 48).max(1);
    let seed_base = arg_u64("--seed", 0);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let cache_budget = arg_usize("--cache-budget", 4096).max(1);
    let cache_budget_bytes = arg_usize("--cache-budget-bytes", 64 << 20).max(1);
    let cache_shards = arg_usize("--cache-shards", 8).max(1);
    let out = arg_string("--out", "BENCH_perf.json");
    let metrics_out = arg_string("--metrics-out", "");
    let tool = Tool::SpirvFuzz;

    // Stage 1: find the triage set — one bug per (target, signature). A bug
    // is detected on the first fuzzer round's variant and the campaign then
    // keeps fuzzing for the remaining rounds (the paper's scenario: the
    // recorded transformation sequence is much longer than the part that
    // matters). Deepened problems are kept only when the final variant
    // still triggers the same signature, so the reduction is a pure
    // function of the deep sequence.
    let targets: Arc<Vec<Target>> = Arc::new(catalog::all_targets());
    let donors = donor_modules();
    let mut problems: Vec<Problem> = Vec::new();
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for i in 0..tests {
        let seed = seed_base + i as u64;
        let shallow = generate_test(tool, seed, &donors);
        let deep = deep_test(tool, seed, rounds, &donors);
        for (t, target) in targets.iter().enumerate() {
            let check = |variant: &Context| {
                classify(tool, target, &shallow.original, &variant.module, &shallow.original.inputs)
            };
            let Some(signature) = check(&shallow.variant) else { continue };
            if !seen.insert((t, signature.to_string())) {
                continue;
            }
            let test =
                if check(&deep.variant).as_ref() == Some(&signature) { &deep } else { &shallow };
            problems.push(Problem { test: test.clone(), target_index: t, signature });
        }
    }
    let sequence_transformations: usize =
        problems.iter().map(|p| p.test.transformations.len()).sum();
    eprintln!(
        "triage set: {} bugs from {tests} tests ({} transformations total)",
        problems.len(),
        sequence_transformations
    );

    let defaults = ReducerOptions::default();
    let serial_opts = ReducerOptions {
        prefix_cache_budget: 0,
        memoize_verdicts: false,
        ..defaults
    };
    let cached_opts = ReducerOptions {
        prefix_cache_budget: cache_budget,
        memoize_verdicts: true,
        ..serial_opts
    };

    // Stage 2: the sequential configurations, back to back.
    let live_serial = AtomicU64::new(0);
    let start = Instant::now();
    let serial_runs = reduce_all(&problems, &targets, serial_opts, false, None, &live_serial);
    let serial_wall = start.elapsed().as_millis() as u64;

    let live_cached = AtomicU64::new(0);
    let start = Instant::now();
    let cached_runs = reduce_all(&problems, &targets, cached_opts, true, None, &live_cached);
    let cached_wall = start.elapsed().as_millis() as u64;

    let live_shared = AtomicU64::new(0);
    let shared_cache = Arc::new(SharedPrefixCache::new(cache_budget_bytes, cache_shards));
    let start = Instant::now();
    let shared_runs = reduce_all(
        &problems,
        &targets,
        cached_opts,
        true,
        Some(&shared_cache),
        &live_shared,
    );
    let shared_wall = start.elapsed().as_millis() as u64;

    // Stage 3: per-bug parallelism (the pipeline's reduction_threads mode):
    // cached serial engines, bugs distributed over the pool.
    let live_parallel = AtomicU64::new(0);
    let start = Instant::now();
    let parallel_runs = if problems.is_empty() {
        Vec::new()
    } else {
        let problems = &problems;
        let targets = &targets;
        let live_parallel = &live_parallel;
        with_pool(threads.min(problems.len()), |pool| {
            pool.map(problems.len(), move |i| {
                let p = &problems[i];
                let oracle = ReferenceOracle::new(p.test.tool, &p.test.original);
                let probe = make_probe(targets, p, &oracle, live_parallel);
                Reducer::new(cached_opts).reduce_journaled_seeded(
                    &p.test.original,
                    &p.test.transformations,
                    &p.test.variant,
                    &ReductionLog::new(),
                    probe,
                    |_, _| {},
                )
            })
        })
    };
    let parallel_wall_ms = start.elapsed().as_millis() as u64;

    // Optional instrumented pass, after every timed stage: re-reduce the
    // triage set with the cached engine streaming counters to a
    // deterministic-mode sink (one reduction scope per bug, the pipeline's
    // convention) and write the snapshot.
    if !metrics_out.is_empty() {
        let sink = Arc::new(RecordingSink::deterministic());
        let handle = SinkHandle::new(sink.clone());
        let live_observed = AtomicU64::new(0);
        for (i, p) in problems.iter().enumerate() {
            let oracle = ReferenceOracle::new(p.test.tool, &p.test.original);
            let probe = make_probe(&targets, p, &oracle, &live_observed);
            let _ = Reducer::new(cached_opts)
                .with_sink(handle.clone(), Scope::Reduction(i))
                .reduce_journaled_seeded(
                    &p.test.original,
                    &p.test.transformations,
                    &p.test.variant,
                    &ReductionLog::new(),
                    probe,
                    |_, _| {},
                );
        }
        let json = sink.snapshot().to_json();
        if let Err(e) = std::fs::write(&metrics_out, json + "\n") {
            eprintln!("FAIL: cannot write {metrics_out}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {metrics_out}");
    }

    // Stage 4: the contract — every configuration lands on the same bytes.
    let equivalent = same("cached", &cached_runs, &serial_runs)
        & same("shared", &shared_runs, &serial_runs)
        & same("parallel", &parallel_runs, &serial_runs);

    let serial = summarize("serial", &serial_runs, &live_serial, serial_wall);
    let cached = summarize("cached", &cached_runs, &live_cached, cached_wall);
    let shared = summarize("shared", &shared_runs, &live_shared, shared_wall);

    let serial_applied = serial.engine.cache.transformations_applied;
    let cached_applied = cached.engine.cache.transformations_applied;
    let apply_reduction_factor = serial_applied as f64 / cached_applied.max(1) as f64;
    let parallel_speedup = serial.wall_ms as f64 / parallel_wall_ms.max(1) as f64;

    let baseline = PerfBaseline {
        tool: tool.name().to_owned(),
        tests,
        rounds,
        seed_base,
        threads,
        bugs_reduced: problems.len(),
        sequence_transformations,
        cache_budget_bytes,
        cache_shards,
        serial,
        cached,
        shared,
        parallel_wall_ms,
        apply_reduction_factor,
        parallel_speedup,
        equivalent,
    };

    let fmt_engine = |e: &EngineBaseline| {
        vec![
            vec![format!("{} probes journaled", e.name), e.probes_journaled.to_string()],
            vec![format!("{} live probes", e.name), e.live_probes.to_string()],
            vec![format!("{} lookups", e.name), e.engine.cache.lookups.to_string()],
            vec![
                format!("{} unprobed lookups", e.name),
                e.engine.unprobed_lookups.to_string(),
            ],
            vec![
                format!("{} applications", e.name),
                e.engine.cache.transformations_applied.to_string(),
            ],
            vec![
                format!("{} applications saved", e.name),
                e.engine.cache.transformations_saved.to_string(),
            ],
            vec![format!("{} evictions", e.name), e.engine.cache.evictions.to_string()],
            vec![format!("{} memo hits", e.name), e.engine.memo_hits.to_string()],
            vec![format!("{} wall ms", e.name), e.wall_ms.to_string()],
        ]
    };
    let mut rows = vec![
        vec!["bugs reduced".to_owned(), baseline.bugs_reduced.to_string()],
        vec![
            "sequence transformations".to_owned(),
            baseline.sequence_transformations.to_string(),
        ],
    ];
    rows.extend(fmt_engine(&baseline.serial));
    rows.extend(fmt_engine(&baseline.cached));
    rows.extend(fmt_engine(&baseline.shared));
    rows.push(vec![
        "parallel wall ms".to_owned(),
        baseline.parallel_wall_ms.to_string(),
    ]);
    rows.push(vec![
        "apply reduction factor".to_owned(),
        format!("{:.2}x", baseline.apply_reduction_factor),
    ]);
    rows.push(vec![
        "parallel speedup".to_owned(),
        format!("{:.2}x", baseline.parallel_speedup),
    ]);
    rows.push(vec!["equivalent".to_owned(), baseline.equivalent.to_string()]);
    println!("{}", render_table(&["metric", "value"], &rows));

    if let Err(e) = baseline.save(&out) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");

    let mut failed = false;
    if baseline.bugs_reduced == 0 {
        eprintln!("FAIL: the campaign surfaced no bugs to reduce");
        failed = true;
    }
    if !baseline.equivalent {
        eprintln!("FAIL: an engine configuration diverged from the serial reference");
        failed = true;
    }
    if baseline.bugs_reduced > 0 && cached_applied >= serial_applied {
        eprintln!(
            "FAIL: cached engine applied {cached_applied} transformations, \
             serial applied {serial_applied} — the cache must strictly reduce work"
        );
        failed = true;
    }
    // The probe-accounting balance on every sequential row.
    let bugs = baseline.bugs_reduced as u64;
    for (row, seeded_bugs) in
        [(&baseline.serial, 0), (&baseline.cached, bugs), (&baseline.shared, bugs)]
    {
        let gap = lookup_gap(row, seeded_bugs);
        if gap != 0 {
            eprintln!(
                "FAIL: {} row lookup accounting is off by {gap}: lookups {} vs \
                 probes_journaled {} - seeded {seeded_bugs} + unprobed {}",
                row.name, row.engine.cache.lookups, row.probes_journaled,
                row.engine.unprobed_lookups,
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
