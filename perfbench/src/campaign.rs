//! `campaign-wide`: the paper's §4.1 campaign at scale.
//!
//! One round is one `run_pipeline` over all nine catalog targets at the
//! stated test count, with the executor pinned to two threads and every
//! journal line appended and flushed to a file as `run_pipeline_on_file`
//! does. The op is one campaign test run on all nine targets. Every round
//! repeats the same pipeline, so every round's report must be identical.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use trx_harness::executor::ExecutorConfig;
use trx_harness::{run_pipeline_observed, Journal, PipelineConfig, PipelineReport, WalRecord};
use trx_observe::{Counter, MetricsReport, RecordingSink, SinkHandle};
use trx_reducer::ProbeRecord;

use crate::common::{digest_of, mix, ratio, Checks, Clock, LayerMetrics, Phase, Size, WARMUP_SEED};
use crate::trace::{self, Layer, Span};
use crate::traced::{catalog_targets, TracedTarget};
use crate::{Ctx, Outcome, SETUPS};

/// Campaign tests per round.
fn round_tests(size: Size) -> usize {
    match size {
        Size::Standard => 2048,
        Size::Tiny => 16,
    }
}

/// Tests in the untimed warm-up pipeline of each set-up: four checkpoint
/// batches, a fixed amount of work well above timer jitter.
const WARMUP_TESTS: usize = 32;

struct Setup {
    targets: Arc<Vec<TracedTarget>>,
    config: PipelineConfig,
    wal_path: PathBuf,
}

/// What one pipeline run's WAL sink saw.
#[derive(Default)]
struct Wal {
    /// Milliseconds per test of each checkpoint batch: the batch's
    /// wall-clock (including its checkpoint append) over its tests.
    per_test_ms: Vec<f64>,
    records: u64,
    bytes: u64,
    probes: u64,
    interesting: u64,
}

/// What one pipeline run left behind.
struct RunOut {
    report: PipelineReport,
    wal: Wal,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let defaults = PipelineConfig::default();
    let config = PipelineConfig {
        tests: round_tests(ctx.size),
        seed_base: mix(ctx.seed, 1) >> 16,
        executor: ExecutorConfig {
            threads: 2,
            ..defaults.executor
        },
        ..defaults
    };
    let wal_path = ctx
        .out_dir
        .join(format!("campaign-wal-{}.jsonl", std::process::id()));
    let setup = Setup {
        targets: Arc::new(catalog_targets()),
        config,
        wal_path,
    };
    let warmup = PipelineConfig {
        tests: WARMUP_TESTS.min(setup.config.tests),
        seed_base: mix(WARMUP_SEED, 1) >> 16,
        ..setup.config
    };
    run_once(&setup, &warmup, &SinkHandle::noop())?;
    Ok(setup)
}

fn run_once(
    setup: &Setup,
    config: &PipelineConfig,
    observe: &SinkHandle,
) -> Result<RunOut, String> {
    let mut file = File::create(&setup.wal_path)
        .map_err(|e| format!("cannot create {}: {e}", setup.wal_path.display()))?;
    let interval = config.executor.checkpoint_interval.max(1);
    let mut write_error: Option<String> = None;
    let mut wal = Wal::default();
    let mut batch_start = Instant::now();
    let mut done_tests = 0usize;
    let op = trace::open_op();
    let op_start = trace::now_ns();
    let mut campaign_end = op_start;
    let report = run_pipeline_observed(
        config,
        &setup.targets,
        &Journal::new(),
        |record| {
            if write_error.is_some() {
                return;
            }
            let appended = trace::span(Layer::WalAppend, || {
                let line = Journal::encode_line(record).map_err(|e| e.to_string())?;
                writeln!(file, "{line}")
                    .and_then(|()| file.flush())
                    .map_err(|e| e.to_string())?;
                Ok::<usize, String>(line.len() + 1)
            });
            match appended {
                Ok(bytes) => {
                    wal.records += 1;
                    wal.bytes += bytes as u64;
                }
                Err(e) => write_error = Some(e),
            }
            match record {
                WalRecord::Campaign(checkpoint) => {
                    let tests = checkpoint.completed_tests - done_tests;
                    done_tests = checkpoint.completed_tests;
                    let now = Instant::now();
                    let ms = now.duration_since(batch_start).as_secs_f64() * 1e3;
                    wal.per_test_ms.push(ms / tests.clamp(1, interval) as f64);
                    batch_start = now;
                    campaign_end = trace::now_ns();
                }
                WalRecord::Probe { record, .. } => {
                    wal.probes += 1;
                    wal.interesting += u64::from(*record == ProbeRecord::Answered(true));
                }
                _ => {}
            }
        },
        observe,
    )
    .map_err(|e| format!("pipeline failed: {e}"))?;
    if op.id() != 0 {
        let end = trace::now_ns();
        for (layer, start, end) in [
            (Layer::HarnessCampaign, op_start, campaign_end),
            (Layer::HarnessReduceStage, campaign_end, end),
        ] {
            trace::record(Span {
                id: trace::new_id(),
                parent: op.id(),
                op: op.id(),
                layer,
                start,
                end,
            });
        }
    }
    drop(op);
    if let Some(e) = write_error {
        return Err(format!("WAL append failed: {e}"));
    }
    Ok(RunOut { report, wal })
}

/// One timed phase: whole pipeline runs until `seconds` have passed.
fn phase(
    setup: &Setup,
    seconds: f64,
    observe: &SinkHandle,
    runs: &mut Vec<RunOut>,
) -> Result<Phase, String> {
    let tests = setup.config.tests as u64;
    let mut phase = Phase {
        ops_per_round: tests,
        ..Phase::default()
    };
    let mut clock = Clock::start();
    loop {
        let out = run_once(setup, &setup.config, observe)?;
        clock.lap(&mut phase);
        phase.ops += tests;
        phase.latencies_ms.extend_from_slice(&out.wal.per_test_ms);
        runs.push(out);
        if clock.elapsed_s() >= seconds {
            break;
        }
    }
    clock.finish(&mut phase);
    Ok(phase)
}

fn check(ctx: &Ctx, setup: &Setup, runs: &[RunOut], checks: &mut Checks) {
    let mut first_digest: Option<String> = None;
    for (i, run) in runs.iter().enumerate() {
        checks.attempted += setup.config.tests as u64;
        let report = &run.report;
        let json = match report.to_json() {
            Ok(json) => json,
            Err(e) => {
                checks.fail(format!("run {i}: report does not serialize: {e}"));
                continue;
            }
        };
        let digest = digest_of(&[json.as_bytes()]);
        if report.tests_completed != setup.config.tests {
            checks.fail(format!(
                "run {i}: {} of {} tests completed",
                report.tests_completed, setup.config.tests
            ));
        }
        if report.metrics.wal.records as u64 != run.wal.records {
            checks.fail(format!(
                "run {i}: report counts {} WAL records, {} were appended",
                report.metrics.wal.records, run.wal.records
            ));
        }
        match &first_digest {
            None => {
                checks.pin(&ctx.expected, "report", &digest);
                first_digest = Some(digest);
            }
            Some(first) if *first != digest => {
                checks.fail(format!(
                    "run {i}: report digest {digest} differs from run 0 ({first})"
                ));
            }
            Some(_) => {}
        }
    }
}

fn layer_metrics(
    setup: &Setup,
    phase: &Phase,
    spans: &[Span],
    runs: &[RunOut],
    sink: &MetricsReport,
) -> LayerMetrics {
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
    let self_s = |layer: Layer| -> f64 {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, &n)| n as f64 / 1e9)
            .sum()
    };
    let total = |c: Counter| sink.total(c) as f64;
    let duration_s = |c: Counter| -> f64 {
        sink.scopes
            .iter()
            .flat_map(|s| s.durations.iter())
            .filter(|d| d.name == c.name())
            .map(|d| d.total_nanos as f64 / 1e9)
            .sum()
    };
    let mut m = LayerMetrics::default();
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
    m.set(
        "harness.campaign_s",
        per_round(sum_s(Layer::HarnessCampaign)),
    );
    m.set(
        "harness.campaign_self_s",
        per_round(self_s(Layer::HarnessCampaign)),
    );
    m.set(
        "harness.reduce_stage_s",
        per_round(sum_s(Layer::HarnessReduceStage)),
    );
    m.set(
        "wal.records",
        per_round(runs.iter().map(|r| r.wal.records as f64).sum()),
    );
    m.set(
        "wal.bytes",
        per_round(runs.iter().map(|r| r.wal.bytes as f64).sum()),
    );
    m.set("wal.append_s", per_round(sum_s(Layer::WalAppend)));
    let reduce = duration_s(Counter::ReductionNanos);
    let probe = duration_s(Counter::ProbeNanos);
    m.set("reducer.reduce_s", per_round(reduce));
    m.set("reducer.probe_s", per_round(probe));
    m.set("reducer.self_s", per_round(reduce - probe));
    m.set("reducer.probes", per_round(total(Counter::LiveProbes)));
    m.set("reducer.memo_hits", per_round(total(Counter::MemoHits)));
    let probes: u64 = runs.iter().map(|r| r.wal.probes).sum();
    let interesting: u64 = runs.iter().map(|r| r.wal.interesting).sum();
    m.set(
        "reducer.interesting_ratio",
        ratio(interesting as f64, probes as f64),
    );
    m.set(
        "core.transformations_applied",
        per_round(total(Counter::CacheApplications)),
    );
    m.set(
        "core.transformations_saved",
        per_round(total(Counter::CacheSaved)),
    );
    m.set(
        "core.cache_hit_ratio",
        ratio(total(Counter::CacheHits), total(Counter::CacheLookups)),
    );
    let batches: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.wal.per_test_ms.iter().copied())
        .collect();
    m.notes.push(crate::percentile_line(
        "harness.batch_p50_ms",
        &batches,
        50.0,
    ));
    m.notes.push(crate::percentile_line(
        "harness.batch_p90_ms",
        &batches,
        90.0,
    ));
    m.notes.push(format!(
        "round = one pipeline run of {} tests on {} targets",
        setup.config.tests,
        setup.targets.len()
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
    let mut checks = Checks::default();
    let mut runs = Vec::new();
    let share = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let untraced = phase(&setup, share, &SinkHandle::noop(), &mut runs)?;
    let traced = if ctx.trace {
        let sink = Arc::new(RecordingSink::full());
        let observe = SinkHandle::new(sink.clone());
        let mut traced_runs = Vec::new();
        trace::set_enabled(true);
        let traced = phase(&setup, share, &observe, &mut traced_runs);
        trace::set_enabled(false);
        let traced = traced?;
        let mut spans = trace::take_spans();
        let stages: Vec<Span> = spans
            .iter()
            .filter(|s| matches!(s.layer, Layer::HarnessCampaign | Layer::HarnessReduceStage))
            .copied()
            .collect();
        for op in stages
            .iter()
            .map(|s| s.parent)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let own: Vec<Span> = stages.iter().filter(|s| s.parent == op).copied().collect();
            trace::nest(&mut spans, op, &own);
        }
        let metrics = layer_metrics(&setup, &traced, &spans, &traced_runs, &sink.snapshot());
        runs.extend(traced_runs);
        Some((traced, spans, metrics))
    } else {
        None
    };
    check(ctx, &setup, &runs, &mut checks);
    let _ = std::fs::remove_file(&setup.wal_path);
    Ok(Outcome {
        setup_s,
        phase: untraced,
        traced,
        checks,
    })
}
