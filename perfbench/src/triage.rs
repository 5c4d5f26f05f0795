//! `triage-deep`: the paper's long-sequence regime.
//!
//! Set-up builds deep tests by chaining fuzzer rounds from the seed, as
//! `perf_triage` does, and keeps every finding on the nine catalog targets,
//! capped per `(target, signature)`. One op reduces one finding with the
//! engine settings of `PipelineConfig::default()`, probing through a
//! `ReferenceOracle` and `attempt_classify_cached`, then keys it with the
//! default dedup backend. A round is one pass over the corpus followed by
//! the backend's recommendation over the round's keys.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use trx_core::{apply_sequence, Context, SharedPrefixCache};
use trx_dedup::{DedupBackend, DedupBackendKind, DedupKey, FindingEvidence, FindingOutcome};
use trx_fuzzer::{Fuzzer, FuzzerOptions};
use trx_harness::campaign::{classify, generate_test, module_for_target, GeneratedTest};
use trx_harness::corpus::donor_modules;
use trx_harness::{
    attempt_classify_cached, Attempt, BugSignature, PipelineConfig, ReferenceOracle, Tool,
};
use trx_observe::{Scope, SinkHandle};
use trx_reducer::{EngineStats, ProbeFault, ProbeRecord, Reducer, ReductionLog};
use trx_targets::TestTarget;

use crate::common::{digest_of, mix, ratio, Checks, Clock, Digest, LayerMetrics, Phase, Size};
use crate::trace::{self, Layer, Span};
use crate::traced::{catalog_targets, TracedTarget};
use crate::{Ctx, Outcome};

const TOOL: Tool = Tool::SpirvFuzz;

/// Set-ups per run: this one builds the whole deep corpus, seconds of
/// work, so three give a steady median.
const SETUPS: usize = 3;

/// The deep corpus's shape. Every test is fuzzed to the same length and
/// contributes one finding, on the first target that fires when the targets
/// are tried from a test-dependent offset. Per-finding reduction cost is
/// heavy-tailed; keeping findings independent and lengths fixed is what
/// keeps one seed's round close to another's.
struct Shape {
    /// Findings kept in the corpus.
    findings: usize,
    /// Transformations per deep test.
    length: usize,
    /// Findings kept per `(target, signature)`.
    per_signature: usize,
    /// Tests tried before settling for fewer findings.
    max_tests: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Standard => Shape {
            findings: 480,
            length: 160,
            per_signature: 32,
            max_tests: 1920,
        },
        Size::Tiny => Shape {
            findings: 6,
            length: 40,
            per_signature: 2,
            max_tests: 40,
        },
    }
}

/// Fuzzer rounds chained onto one test at most.
const MAX_ROUNDS: u64 = 64;

pub struct Finding {
    pub test: GeneratedTest,
    pub target: usize,
    pub signature: BugSignature,
}

/// The deep corpus plus what building it cost.
pub struct Corpus {
    pub findings: Vec<Finding>,
    pub fuzzer_s: f64,
    pub transformations: usize,
}

impl Corpus {
    /// Digest of every finding's test seed, target, signature and
    /// transformation sequence, in corpus order.
    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        for f in &self.findings {
            d.update(&f.test.seed.to_le_bytes());
            d.update(&f.target.to_le_bytes());
            d.update(f.signature.to_string().as_bytes());
            d.update(
                serde_json::to_string(&f.test.transformations)
                    .unwrap_or_default()
                    .as_bytes(),
            );
        }
        d.hex()
    }
}

/// Chains fuzzer rounds until the sequence reaches `length`: each round
/// fuzzes the previous round's variant and the sequences concatenate, so the
/// combined sequence replayed on the original reproduces the final variant.
fn deep_test(
    seed: u64,
    length: usize,
    donors: &[trx_ir::Module],
    fuzzer_s: &mut f64,
) -> GeneratedTest {
    let started = Instant::now();
    let mut test = generate_test(TOOL, seed, donors);
    let mut round = 1;
    while test.transformations.len() < length && round < MAX_ROUNDS {
        let options = FuzzerOptions {
            max_transformations: length - test.transformations.len(),
            ..FuzzerOptions::default()
        };
        let result = Fuzzer::new(options).run(test.variant.clone(), donors, mix(seed, round));
        test.variant = result.context;
        test.transformations.extend(result.transformations);
        round += 1;
    }
    *fuzzer_s += started.elapsed().as_secs_f64();
    test
}

pub fn build_corpus<T: TestTarget>(seed: u64, size: Size, targets: &[T]) -> Corpus {
    let shape = shape(size);
    let donors = donor_modules();
    let mut kept: BTreeMap<(usize, BugSignature), usize> = BTreeMap::new();
    let mut corpus = Corpus {
        findings: Vec::new(),
        fuzzer_s: 0.0,
        transformations: 0,
    };
    for i in 0..shape.max_tests {
        if corpus.findings.len() == shape.findings {
            break;
        }
        let test_seed = mix(seed, 1000 + i as u64) >> 16;
        let test = deep_test(test_seed, shape.length, &donors, &mut corpus.fuzzer_s);
        for k in 0..targets.len() {
            let t = (i + k) % targets.len();
            let found = classify(
                TOOL,
                &targets[t],
                &test.original,
                &test.variant.module,
                &test.original.inputs,
            );
            let Some(signature) = found else { continue };
            let count = kept.entry((t, signature.clone())).or_insert(0);
            if *count < shape.per_signature {
                *count += 1;
                corpus.transformations += test.transformations.len();
                corpus.findings.push(Finding {
                    test,
                    target: t,
                    signature,
                });
                break;
            }
        }
    }
    corpus
}

struct Setup {
    targets: Vec<TracedTarget>,
    corpus: Corpus,
    config: PipelineConfig,
    backend: Box<dyn DedupBackend>,
}

/// One reduced and keyed finding.
struct Reduced {
    sequence_json: String,
    key: DedupKey,
    engine: EngineStats,
    probes: u64,
    interesting: u64,
}

impl Setup {
    fn reduce(&self, f: &Finding, cache: Option<&Arc<SharedPrefixCache>>) -> Reduced {
        let noop = SinkHandle::noop();
        let oracle = ReferenceOracle::new(TOOL, &f.test.original);
        let target = &self.targets[f.target];
        let probe = |variant: &Context| -> Result<bool, ProbeFault> {
            trace::span(Layer::Probe, || {
                match attempt_classify_cached(
                    TOOL,
                    target,
                    &oracle,
                    &variant.module,
                    &noop,
                    Scope::Reduction(0),
                ) {
                    Attempt::Signature(signature) => Ok(signature.as_ref() == Some(&f.signature)),
                    Attempt::Hang => {
                        Err(ProbeFault("interpreter fuel budget exhausted".to_owned()))
                    }
                    Attempt::Panicked(message) => Err(ProbeFault(message)),
                }
            })
        };
        let mut reducer = Reducer::new(self.config.reducer);
        if let Some(cache) = cache {
            reducer = reducer.with_shared_cache(Arc::clone(cache));
        }
        let journaled = trace::span(Layer::Reducer, || {
            reducer.reduce_journaled_seeded(
                &f.test.original,
                &f.test.transformations,
                &f.test.variant,
                &ReductionLog::new(),
                probe,
                |_, _| {},
            )
        });
        let reduction = journaled.reduction;
        let evidence = FindingEvidence {
            target: self.targets[f.target].name().to_owned(),
            outcome: match &f.signature {
                BugSignature::Crash(s) => FindingOutcome::Crash(s.clone()),
                BugSignature::Miscompilation => FindingOutcome::Miscompilation,
            },
            sequence: reduction.sequence.clone(),
            module: module_for_target(TOOL, &reduction.context.module),
            inputs: reduction.context.inputs.clone(),
        };
        let key = trace::span(Layer::DedupKey, || self.backend.key(&evidence, &noop));
        let records = &journaled.log.records;
        Reduced {
            sequence_json: serde_json::to_string(&reduction.sequence).unwrap_or_default(),
            key,
            engine: reduction.engine,
            probes: records.len() as u64,
            interesting: records
                .iter()
                .filter(|r| **r == ProbeRecord::Answered(true))
                .count() as u64,
        }
    }

    /// A fresh run-wide shared cache when the default config enables one.
    fn round_cache(&self) -> Option<Arc<SharedPrefixCache>> {
        (self.config.cache_budget_bytes > 0).then(|| {
            Arc::new(SharedPrefixCache::new(
                self.config.cache_budget_bytes,
                self.config.cache_shards,
            ))
        })
    }
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let targets = catalog_targets();
    let corpus = build_corpus(ctx.seed, ctx.size, &targets);
    if corpus.findings.is_empty() {
        return Err("the deep corpus has no findings".to_owned());
    }
    let config = PipelineConfig::default();
    let setup = Setup {
        targets,
        corpus,
        config,
        backend: DedupBackendKind::default().instantiate(),
    };
    let cache = setup.round_cache();
    setup.reduce(&setup.corpus.findings[0], cache.as_ref());
    Ok(setup)
}

/// What the timed phases produced, for the checks.
#[derive(Default)]
struct Results {
    /// First reduced sequence per finding index.
    first: BTreeMap<usize, (String, DedupKey)>,
    /// Findings whose later reductions differed from their first.
    mismatches: Vec<usize>,
    /// Verdicts of complete rounds.
    verdicts: Vec<Vec<usize>>,
}

#[derive(Default)]
struct Work {
    engine: EngineStats,
    probes: u64,
    interesting: u64,
}

fn phase(setup: &Setup, seconds: f64, results: &mut Results, work: &mut Work) -> Phase {
    let n = setup.corpus.findings.len();
    let mut phase = Phase {
        ops_per_round: n as u64,
        ..Phase::default()
    };
    let mut clock = Clock::start();
    let mut keys: Vec<DedupKey> = Vec::with_capacity(n);
    let mut cache = setup.round_cache();
    let mut i = 0usize;
    loop {
        let started = Instant::now();
        let reduced = {
            let _op = trace::open_op();
            setup.reduce(&setup.corpus.findings[i], cache.as_ref())
        };
        phase
            .latencies_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        phase.ops += 1;
        work.probes += reduced.probes;
        work.interesting += reduced.interesting;
        let e = &mut work.engine;
        e.memo_hits += reduced.engine.memo_hits;
        e.cache.lookups += reduced.engine.cache.lookups;
        e.cache.hits += reduced.engine.cache.hits;
        e.cache.transformations_applied += reduced.engine.cache.transformations_applied;
        e.cache.transformations_saved += reduced.engine.cache.transformations_saved;
        match results.first.get(&i) {
            None => {
                results
                    .first
                    .insert(i, (reduced.sequence_json, reduced.key.clone()));
            }
            Some((first, _)) if *first != reduced.sequence_json => results.mismatches.push(i),
            Some(_) => {}
        }
        keys.push(reduced.key);
        i += 1;
        if i == n {
            let verdict = {
                let _op = trace::open_op();
                trace::span(Layer::DedupRecommend, || setup.backend.recommend(&keys))
            };
            results.verdicts.push(verdict);
            clock.lap(&mut phase);
            keys.clear();
            cache = setup.round_cache();
            i = 0;
            if clock.elapsed_s() >= seconds {
                break;
            }
        }
    }
    clock.finish(&mut phase);
    phase
}

fn check(ctx: &Ctx, setup: &Setup, results: &Results, phase_ops: u64, checks: &mut Checks) {
    checks.attempted += phase_ops;
    let noop = SinkHandle::noop();
    let mut reduced_digest = Digest::default();
    for (i, f) in setup.corpus.findings.iter().enumerate() {
        let Some((sequence_json, key)) = results.first.get(&i) else {
            checks.fail(format!("finding {i} was never reduced"));
            continue;
        };
        reduced_digest.update(sequence_json.as_bytes());
        reduced_digest.update(format!("{key:?}").as_bytes());
        // Replay: the reduced sequence applied to the original must still
        // trigger the finding's signature (one probe per finding).
        let sequence: Vec<trx_core::Transformation> = match serde_json::from_str(sequence_json) {
            Ok(s) => s,
            Err(e) => {
                checks.fail(format!("finding {i}: reduced sequence does not parse: {e}"));
                continue;
            }
        };
        let mut context = f.test.original.clone();
        apply_sequence(&mut context, &sequence);
        let oracle = ReferenceOracle::new(TOOL, &f.test.original);
        let target = &setup.targets[f.target];
        match attempt_classify_cached(
            TOOL,
            target,
            &oracle,
            &context.module,
            &noop,
            Scope::Reduction(0),
        ) {
            Attempt::Signature(Some(s)) if s == f.signature => {}
            other => checks.fail(format!(
                "finding {i}: reduced sequence no longer triggers `{}` ({other:?})",
                f.signature
            )),
        }
    }
    for i in &results.mismatches {
        checks.fail(format!(
            "finding {i}: a later reduction differed from the first"
        ));
    }
    checks.pin(&ctx.expected, "reduced", &reduced_digest.hex());
    if let Some(first) = results.verdicts.first() {
        let digest = digest_of(&[format!("{first:?}").as_bytes()]);
        checks.pin(&ctx.expected, "verdict", &digest);
        if results.verdicts.iter().any(|v| v != first) {
            checks.fail("rounds disagree on the dedup verdict".to_owned());
        }
    }
}

fn layer_metrics(setup: &Setup, phase: &Phase, spans: &[Span], work: &Work) -> LayerMetrics {
    let rounds = phase.rounds();
    let per_round = |v: f64| v / rounds;
    let sum_s = |layer: Layer| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.duration() as f64 / 1e9)
            .sum()
    };
    let calls = |layer: Layer| spans.iter().filter(|s| s.layer == layer).count() as f64;
    let selfs = trace::self_times(spans);
    let reducer_self: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.layer == Layer::Reducer)
        .map(|(_, &n)| n as f64 / 1e9)
        .sum();
    let mut m = LayerMetrics::default();
    m.set("reducer.reduce_s", per_round(sum_s(Layer::Reducer)));
    m.set("reducer.probe_s", per_round(sum_s(Layer::Probe)));
    m.set("reducer.self_s", per_round(reducer_self));
    m.set("reducer.probes", per_round(work.probes as f64));
    m.set("reducer.memo_hits", per_round(work.engine.memo_hits as f64));
    m.set(
        "reducer.interesting_ratio",
        ratio(work.interesting as f64, work.probes as f64),
    );
    let cache = &work.engine.cache;
    m.set(
        "core.transformations_applied",
        per_round(cache.transformations_applied as f64),
    );
    m.set(
        "core.transformations_saved",
        per_round(cache.transformations_saved as f64),
    );
    m.set(
        "core.cache_hit_ratio",
        ratio(cache.hits as f64, cache.lookups as f64),
    );
    m.set(
        "targets.execute_calls",
        per_round(calls(Layer::TargetExecute)),
    );
    m.set("targets.execute_s", per_round(sum_s(Layer::TargetExecute)));
    m.set(
        "targets.reference_calls",
        per_round(calls(Layer::TargetReference)),
    );
    m.set(
        "targets.reference_s",
        per_round(sum_s(Layer::TargetReference)),
    );
    m.set("fuzzer.generate_s", setup.corpus.fuzzer_s);
    m.set(
        "fuzzer.transformations",
        setup.corpus.transformations as f64,
    );
    m.set("dedup.key_s", per_round(sum_s(Layer::DedupKey)));
    m.set("dedup.recommend_s", per_round(sum_s(Layer::DedupRecommend)));
    m.notes.push(format!(
        "round = one pass over {} findings averaging {:.0} transformations; fuzzer.* cover the \
         last set-up's corpus build",
        setup.corpus.findings.len(),
        setup.corpus.transformations as f64 / setup.corpus.findings.len().max(1) as f64
    ));
    m
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let s = setup(ctx)?;
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some(s);
    }
    let setup = built.ok_or("no set-up ran")?;
    eprintln!(
        "triage-deep: {} findings, {} transformations, corpus digest {}",
        setup.corpus.findings.len(),
        setup.corpus.transformations,
        setup.corpus.digest()
    );
    let mut results = Results::default();
    let share = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let untraced = phase(&setup, share, &mut results, &mut Work::default());
    let mut ops = untraced.ops;
    let traced = if ctx.trace {
        let mut work = Work::default();
        trace::set_enabled(true);
        let traced = phase(&setup, share, &mut results, &mut work);
        trace::set_enabled(false);
        let spans = trace::take_spans();
        ops += traced.ops;
        let metrics = layer_metrics(&setup, &traced, &spans, &work);
        Some((traced, spans, metrics))
    } else {
        None
    };
    let mut checks = Checks::default();
    check(ctx, &setup, &results, ops, &mut checks);
    Ok(Outcome {
        setup_s,
        phase: untraced,
        traced,
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_deep_corpus() {
        let targets = catalog_targets();
        let a = build_corpus(3, Size::Tiny, &targets);
        let b = build_corpus(3, Size::Tiny, &targets);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.findings.len(), b.findings.len());
        let c = build_corpus(4, Size::Tiny, &targets);
        assert_ne!(a.digest(), c.digest());
    }
}
