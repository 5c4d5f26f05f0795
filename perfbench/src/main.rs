//! The repository benchmark: one workload per process, timed end to end
//! with tracing off, or traced layer by layer with `--trace 1`.
//!
//! Usage: `perfbench --workload <campaign-wide|triage-deep|daemon-mixed>
//! [--seed N] [--seconds S] [--trace 0|1] [--size standard|tiny]
//! [--expected FILE] [--out-dir DIR] [--print-digests]`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1 when
//! any output check fails, 2 on a usage error. See `README.md` beside this
//! crate for every metric's definition.

mod campaign;
mod common;
mod daemon;
mod host;
mod stats;
mod trace;
mod traced;
mod triage;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Checks, Expected, LayerMetrics, Phase, Size, DEFAULT_SEED};
use trace::Span;

/// Set-ups per run; `setup_s` is their median. Short set-ups are repeated
/// more so that their median is steady.
pub const SETUPS: usize = 9;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["campaign-wide", "triage-deep", "daemon-mixed"];

/// Every per-layer metric the traced run prints, for every workload; a
/// layer a workload does not exercise reads 0.
const LAYER_METRICS: [&str; 32] = [
    "reducer.reduce_s",
    "reducer.probe_s",
    "reducer.self_s",
    "reducer.probes",
    "reducer.memo_hits",
    "reducer.interesting_ratio",
    "core.transformations_applied",
    "core.transformations_saved",
    "core.cache_hit_ratio",
    "targets.execute_calls",
    "targets.execute_s",
    "targets.reference_calls",
    "targets.reference_s",
    "harness.campaign_s",
    "harness.campaign_self_s",
    "harness.reduce_stage_s",
    "wal.records",
    "wal.bytes",
    "wal.append_s",
    "fuzzer.generate_s",
    "fuzzer.transformations",
    "wire.requests",
    "wire.submit_s",
    "wire.status_s",
    "wire.findings_s",
    "wire.findings_bytes",
    "store.duplicates_suppressed",
    "store.jobs_committed",
    "store.signatures",
    "dedup.key_s",
    "dedup.recommend_s",
    "trace.overhead",
];

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub expected: Expected,
    pub out_dir: PathBuf,
}

/// What a workload hands back: its set-up times, the untraced phase (the
/// source of every end-to-end metric), the traced phase with its spans and
/// per-layer metrics when tracing, and the output checks.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    pub traced: Option<(Phase, Vec<Span>, LayerMetrics)>,
    pub checks: Checks,
}

/// `name value (n samples)` for a nearest-rank percentile, or a note that
/// too few samples lie beyond it.
pub fn percentile_line(name: &str, samples: &[f64], p: f64) -> String {
    match stats::percentile(samples, p) {
        Some(q) => format!("{name} {:.6} ({} samples)", q.value, q.samples),
        None => format!(
            "{name} not emitted ({} samples, fewer than {} beyond it)",
            samples.len(),
            stats::MIN_BEYOND
        ),
    }
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--size standard|tiny] [--expected FILE] [--out-dir DIR] [--print-digests]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    ctx: Ctx,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Standard;
    let mut expected_path: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let mut print_digests = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => size = Size::parse(&value).ok_or_else(bad)?,
            "--expected" => expected_path = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag or value: {flag} {value}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let text = match &expected_path {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        None => include_str!("../expected/digests.txt").to_owned(),
    };
    let expected = Expected::parse(&text, &workload, size, seed)?;
    Ok(Args {
        ctx: Ctx {
            workload,
            seed,
            seconds,
            trace,
            size,
            expected,
            out_dir,
        },
        print_digests,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => return usage(&why),
    };
    let ctx = &args.ctx;
    let mut host = host::Host::at_start();
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match ctx.workload.as_str() {
        "campaign-wide" => campaign::run(ctx),
        "triage-deep" => triage::run(ctx),
        _ => daemon::run(ctx),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("perfbench: {}: {why}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    host.loadavg_end = host::loadavg_1m();
    let checks = &outcome.checks;
    if args.print_digests {
        for (name, digest) in &checks.digests {
            println!(
                "{} {} {} {name} {digest}",
                ctx.workload,
                ctx.size.name(),
                ctx.seed
            );
        }
    }

    let mut report = String::new();
    let mut line = |text: String| {
        report.push_str(&text);
        report.push('\n');
    };
    line(format!(
        "host: nproc {} available_parallelism {} cpu {:?} loadavg start {:.2} end {:.2}{}",
        host.nproc,
        host.available_parallelism,
        host.cpu_model,
        host.loadavg_start,
        host.loadavg_end,
        if host.oversubscribed() {
            " OVERSUBSCRIBED: load >= nproc at start"
        } else {
            ""
        }
    ));
    line(format!(
        "run: workload {} seed {} size {} seconds {} trace {}",
        ctx.workload,
        ctx.seed,
        ctx.size.name(),
        ctx.seconds,
        u8::from(ctx.trace)
    ));
    let attempted = checks.attempted.max(1);
    let failed = (checks.failures.len() as u64).min(attempted);
    for why in &checks.failures {
        line(format!("FAIL: {why}"));
    }
    line(format!(
        "fail_ratio {} ({failed} of {attempted} ops)",
        failed as f64 / attempted as f64
    ));

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let phase = &outcome.phase;
    if let Some((traced, spans, layers)) = &outcome.traced {
        let table = trace::layer_table(spans, traced.wall_ns);
        let dir = ctx
            .out_dir
            .join(format!("{}-seed{}", ctx.workload, ctx.seed));
        let title = format!(
            "{} seed {}: traced wall-clock split by layer self time ({} ops)",
            ctx.workload, ctx.seed, traced.ops
        );
        let rendered = trace::render_table(&title, &table);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| trace::write_spans(&dir.join("spans.csv"), spans))
            .and_then(|()| std::fs::write(dir.join("layers.txt"), &rendered));
        if let Err(e) = written {
            eprintln!(
                "perfbench: cannot write trace artifacts to {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
        line(rendered.trim_end().to_owned());
        line(format!("trace artifacts: {}", dir.display()));
        for note in &layers.notes {
            line(note.clone());
        }
        line(format!(
            "untraced ops_per_s {:.6}, traced ops_per_s {:.6}",
            phase.ops_per_s(),
            traced.ops_per_s()
        ));
        for name in LAYER_METRICS {
            let value = match name {
                "trace.overhead" => phase.ops_per_s() / traced.ops_per_s(),
                _ => layers.values.get(name).copied().unwrap_or(0.0),
            };
            let unit = if name.ends_with("_s") {
                "s"
            } else if name.ends_with("_bytes") || name == "wal.bytes" {
                "bytes"
            } else if name.ends_with("_ratio") || name == "trace.overhead" {
                "ratio"
            } else {
                "count"
            };
            metrics.push((name.to_owned(), value, unit));
        }
    } else {
        let p50 = stats::percentile(&phase.latencies_ms, 50.0);
        let p90 = stats::percentile(&phase.latencies_ms, 90.0);
        line(percentile_line("p50_ms", &phase.latencies_ms, 50.0));
        line(percentile_line("p90_ms", &phase.latencies_ms, 90.0));
        line(format!(
            "ops {} in {:.6} s ({} per round); round_s {:?}; setup_s samples {:?}; steal {:.3}",
            phase.ops,
            phase.wall_ns as f64 / 1e9,
            phase.ops_per_round,
            phase.round_s,
            outcome.setup_s,
            phase.steal_share
        ));
        metrics.push(("setup_s".to_owned(), stats::median(&outcome.setup_s), "s"));
        metrics.push(("ops_per_s".to_owned(), phase.ops_per_s(), "1/s"));
        if let Some(q) = p50 {
            metrics.push(("p50_ms".to_owned(), q.value, "ms"));
        }
        if let Some(q) = p90 {
            metrics.push(("p90_ms".to_owned(), q.value, "ms"));
        }
        metrics.push(("cpu_s".to_owned(), phase.cpu_per_round(), "s"));
        metrics.push(("peak_rss_mb".to_owned(), phase.peak_rss_mb, "MiB"));
    }
    // JSON has no value for an undefined number: such a metric is left out
    // of the result line, where its absence shows.
    for (name, value, unit) in &metrics {
        line(format!("{name} {value} {unit}"));
    }
    metrics.retain(|(_, value, _)| value.is_finite());
    let result_path = ctx.out_dir.join(format!(
        "{}-seed{}-trace{}.txt",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::write(&result_path, &report) {
        eprintln!("perfbench: cannot write {}: {e}", result_path.display());
    }
    print!("{report}");

    let correct = checks.failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
