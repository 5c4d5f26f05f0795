//! `daemon-mixed`: the only path through `trx-server`'s queue, supervisor,
//! store and wire codec.
//!
//! An in-process `Daemon` at `DaemonConfig::default()` serves one client
//! thread that keeps two jobs outstanding (a closed loop) and streams each
//! job's findings with `Findings { from }` as they arrive. Jobs come from a
//! stream drawn from the seed, every one distinct: 16 tests on all nine
//! targets, in a 4:1:1 mix of store-consulting, self-contained, and
//! self-contained `pass-bisection` jobs. The op is one job, from submit
//! until its last finding is received; a round is 120 consecutive jobs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use trx_dedup::DedupBackendKind;
use trx_harness::{BugSignature, Journal, WalRecord};
use trx_observe::{RecordingSink, SinkHandle};
use trx_server::{
    Daemon, DaemonConfig, DaemonStats, InProcessClient, JobPhase, JobSpec, Request, Response,
};

use crate::common::{digest_of, mix, Checks, Clock, LayerMetrics, Phase, Size, WARMUP_SEED};
use crate::trace::{self, Layer, Span};
use crate::{percentile_line, Ctx, Outcome, SETUPS};

/// Jobs the client keeps outstanding.
const OUTSTANDING: usize = 2;

/// Pause between polling sweeps that completed no job.
const POLL: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Consults the durable store: known signatures come back as
    /// duplicates without reduction.
    Store,
    /// Self-contained: reduces every signature it finds.
    Reduce,
    /// Self-contained, deduplicated by pass bisection.
    Bisect,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Store => "store",
            Class::Reduce => "reduce",
            Class::Bisect => "bisect",
        }
    }
}

/// The 4:1:1 mix, interleaved so each class recurs evenly.
const MIX: [Class; 6] = [
    Class::Store,
    Class::Store,
    Class::Reduce,
    Class::Store,
    Class::Store,
    Class::Bisect,
];

#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    pub class: Class,
    pub spec: JobSpec,
}

/// `(jobs per round, tests per job)`.
fn shape(size: Size) -> (u64, usize) {
    match size {
        Size::Standard => (120, 16),
        Size::Tiny => (6, 4),
    }
}

/// Job `index` of the stream for `seed`.
pub fn job(seed: u64, size: Size, index: u64) -> PlannedJob {
    let class = MIX[(index % MIX.len() as u64) as usize];
    let spec = JobSpec {
        tests: shape(size).1,
        seed_base: mix(seed, 5000 + index) >> 16,
        target_count: 0,
        consult_store: class == Class::Store,
        dedup_backend: if class == Class::Bisect {
            DedupBackendKind::PassBisection
        } else {
            DedupBackendKind::default()
        },
        ..JobSpec::small(0)
    };
    PlannedJob { class, spec }
}

/// A job the client is waiting on.
struct InFlight {
    index: u64,
    class: Class,
    job: u64,
    submitted: Instant,
    span: u32,
    span_start: u64,
    lines: Vec<String>,
}

/// What finished jobs left for the checks and the traced metrics.
#[derive(Default)]
struct Results {
    /// Journal digests of the self-contained jobs of the first round.
    journals: BTreeMap<u64, String>,
    /// Duplicate keys store-consulting jobs answered.
    duplicate_keys: BTreeSet<String>,
    /// `(daemon job id, class)` of every finished job.
    finished: Vec<(u64, Class)>,
}

#[derive(Default)]
struct Wire {
    requests: u64,
    findings_bytes: u64,
}

struct Setup {
    daemon: Daemon,
    client: InProcessClient,
    seed: u64,
    size: Size,
    sink: Option<Arc<RecordingSink>>,
    /// Index of the next job to submit.
    next: u64,
}

fn request(
    client: &mut InProcessClient,
    wire: &mut Wire,
    layer: Layer,
    op: u32,
    request: &Request,
) -> Response {
    wire.requests += 1;
    trace::span_under(layer, op, op, || client.request(request))
}

impl Setup {
    fn submit(&mut self, wire: &mut Wire) -> Result<InFlight, String> {
        let index = self.next;
        self.next += 1;
        let PlannedJob { class, spec } = job(self.seed, self.size, index);
        self.send(index, class, spec, wire)
    }

    fn send(
        &mut self,
        index: u64,
        class: Class,
        spec: JobSpec,
        wire: &mut Wire,
    ) -> Result<InFlight, String> {
        let span = if trace::enabled() { trace::new_id() } else { 0 };
        let span_start = trace::now_ns();
        let submitted = Instant::now();
        match request(
            &mut self.client,
            wire,
            Layer::WireSubmit,
            span,
            &Request::Submit(spec),
        ) {
            Response::Accepted { job } => Ok(InFlight {
                index,
                class,
                job,
                submitted,
                span,
                span_start,
                lines: Vec::new(),
            }),
            other => Err(format!("submit of job {index} answered {other:?}")),
        }
    }

    /// Polls `job` once; `Some(latency)` once its last finding arrived.
    fn poll(&mut self, job: &mut InFlight, wire: &mut Wire) -> Result<Option<Duration>, String> {
        let from = job.lines.len();
        let req = Request::Findings { job: job.job, from };
        match request(&mut self.client, wire, Layer::WireFindings, job.span, &req) {
            Response::Findings {
                records, terminal, ..
            } => {
                wire.findings_bytes += records.iter().map(|r| r.len() as u64).sum::<u64>();
                job.lines.extend(records);
                Ok(terminal.then(|| job.submitted.elapsed()))
            }
            other => Err(format!("findings of job {} answered {other:?}", job.job)),
        }
    }

    /// Checks a finished job and records what later checks need.
    fn finish(
        &mut self,
        job: InFlight,
        wire: &mut Wire,
        results: &mut Results,
        checks: &mut Checks,
    ) {
        if job.span != 0 {
            trace::record(Span {
                id: job.span,
                parent: 0,
                op: job.span,
                layer: Layer::Op,
                start: job.span_start,
                end: trace::now_ns(),
            });
        }
        let class = job.class;
        results.finished.push((job.job, class));
        checks.attempted += 1;
        let status = request(
            &mut self.client,
            wire,
            Layer::WireStatus,
            0,
            &Request::Status { job: job.job },
        );
        match status {
            Response::Status(s) if s.phase == JobPhase::Done => {}
            other => {
                checks.fail(format!("job {} did not end Done: {other:?}", job.index));
                return;
            }
        }
        if !job
            .lines
            .last()
            .is_some_and(|l| l.starts_with("{\"Verdict\""))
        {
            checks.fail(format!("job {} has no final Verdict record", job.index));
            return;
        }
        match class {
            Class::Store => {
                for line in job.lines.iter().filter(|l| l.starts_with("{\"Duplicate\"")) {
                    match Journal::parse(line).map(|j| j.records) {
                        Ok(records) => {
                            if let Some(WalRecord::Duplicate { key, .. }) = records.first() {
                                results.duplicate_keys.insert(key.clone());
                            }
                        }
                        Err(e) => {
                            checks.fail(format!("job {}: bad Duplicate record: {e}", job.index))
                        }
                    }
                }
            }
            Class::Reduce | Class::Bisect if job.index < shape(self.size).0 => {
                let parts: Vec<&[u8]> = job.lines.iter().map(|l| l.as_bytes()).collect();
                results.journals.insert(job.index, digest_of(&parts));
            }
            Class::Reduce | Class::Bisect => {}
        }
    }

    /// Runs a closed loop for `seconds`, rounded up to whole rounds so every
    /// class keeps its share of the samples, then waits for the outstanding
    /// jobs.
    fn phase(
        &mut self,
        seconds: f64,
        results: &mut Results,
        wire: &mut Wire,
        checks: &mut Checks,
    ) -> Result<Phase, String> {
        let round = shape(self.size).0;
        let mut phase = Phase {
            ops_per_round: round,
            ..Phase::default()
        };
        let mut clock = Clock::start();
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut submitted = 0u64;
        loop {
            while (clock.elapsed_s() < seconds || !submitted.is_multiple_of(round))
                && in_flight.len() < OUTSTANDING
            {
                in_flight.push(self.submit(wire)?);
                submitted += 1;
            }
            if in_flight.is_empty() {
                break;
            }
            let mut finished = Vec::new();
            for (i, job) in in_flight.iter_mut().enumerate() {
                if let Some(latency) = self.poll(job, wire)? {
                    phase.latencies_ms.push(latency.as_secs_f64() * 1e3);
                    finished.push(i);
                }
            }
            for &i in finished.iter().rev() {
                let job = in_flight.swap_remove(i);
                phase.ops += 1;
                if phase.ops.is_multiple_of(phase.ops_per_round) {
                    clock.lap(&mut phase);
                }
                self.finish(job, wire, results, checks);
            }
            if finished.is_empty() {
                std::thread::sleep(POLL);
            }
        }
        clock.finish(&mut phase);
        Ok(phase)
    }

    fn stats(&mut self, wire: &mut Wire) -> Result<DaemonStats, String> {
        match request(
            &mut self.client,
            wire,
            Layer::WireStatus,
            0,
            &Request::Stats,
        ) {
            Response::Stats(stats) => Ok(stats),
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let sink = ctx.trace.then(|| Arc::new(RecordingSink::full()));
    let observe = sink
        .as_ref()
        .map_or_else(SinkHandle::noop, |s| SinkHandle::new(s.clone()));
    let daemon = Daemon::start(DaemonConfig::default(), observe);
    let client = InProcessClient::connect(daemon.clone());
    let mut setup = Setup {
        daemon,
        client,
        seed: ctx.seed,
        size: ctx.size,
        sink,
        next: 0,
    };
    // Warm-up: one self-contained job that is the same in every run, run to
    // completion and checked like any op.
    let mut wire = Wire::default();
    let warmup = job(WARMUP_SEED, ctx.size, 2);
    let mut job = setup.send(u64::MAX, warmup.class, warmup.spec, &mut wire)?;
    while setup.poll(&mut job, &mut wire)?.is_none() {
        std::thread::sleep(POLL);
    }
    let mut checks = Checks::default();
    setup.finish(job, &mut wire, &mut Results::default(), &mut checks);
    if let Some(why) = checks.failures.first() {
        return Err(format!("warm-up job failed: {why}"));
    }
    Ok(setup)
}

/// The `(target, signature)` a store key was built from (`target|signature`).
fn parse_key(key: &str) -> Option<(String, BugSignature)> {
    let (target, signature) = key.split_once('|')?;
    let signature = if signature == "miscompilation" {
        BugSignature::Miscompilation
    } else {
        BugSignature::Crash(signature.strip_prefix("crash: ")?.to_owned())
    };
    Some((target.to_owned(), signature))
}

fn check(ctx: &Ctx, setup: &mut Setup, results: &Results, checks: &mut Checks) {
    for (index, digest) in &results.journals {
        checks.pin(&ctx.expected, &format!("job-{index:03}"), digest);
    }
    // Store-consulting jobs may answer duplicates only for signatures the
    // store holds at the end of the run.
    let mut wire = Wire::default();
    for key in &results.duplicate_keys {
        let Some((target, signature)) = parse_key(key) else {
            checks.fail(format!("duplicate key {key:?} does not parse"));
            continue;
        };
        let req = Request::Signature { target, signature };
        match request(&mut setup.client, &mut wire, Layer::WireStatus, 0, &req) {
            Response::Duplicate { key: found, .. } if found == *key => {}
            other => checks.fail(format!(
                "duplicate key {key:?} is not in the final corpus: {other:?}"
            )),
        }
    }
}

fn layer_metrics(
    setup: &mut Setup,
    phase: &Phase,
    spans: &[Span],
    wire: &Wire,
    results: &Results,
    suppressed_before: u64,
) -> Result<LayerMetrics, String> {
    let rounds = phase.rounds();
    let per_round = |v: f64| v / rounds;
    let sum_s = |layer: Layer| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.duration() as f64 / 1e9)
            .sum()
    };
    let mut m = LayerMetrics::default();
    m.set("wire.requests", per_round(wire.requests as f64));
    m.set("wire.submit_s", per_round(sum_s(Layer::WireSubmit)));
    m.set("wire.status_s", per_round(sum_s(Layer::WireStatus)));
    m.set("wire.findings_s", per_round(sum_s(Layer::WireFindings)));
    m.set("wire.findings_bytes", per_round(wire.findings_bytes as f64));
    let mut off_wire = Wire::default();
    let stats = setup.stats(&mut off_wire)?;
    m.set(
        "store.duplicates_suppressed",
        per_round((stats.duplicates_suppressed - suppressed_before) as f64),
    );
    m.set("store.jobs_committed", stats.store_jobs_committed as f64);
    m.set("store.signatures", stats.store_signatures as f64);
    let nanos = match setup.client.request(&Request::Latencies) {
        Response::Latencies { nanos } => nanos,
        other => return Err(format!("latencies answered {other:?}")),
    };
    let ms_of = |class: Option<Class>| -> Vec<f64> {
        results
            .finished
            .iter()
            .filter(|(_, c)| class.is_none_or(|want| *c == want))
            .filter_map(|(job, _)| nanos.get(*job as usize).copied().flatten())
            .map(|n| n as f64 / 1e6)
            .collect()
    };
    let all = ms_of(None);
    m.notes
        .push(percentile_line("server.job_p50_ms", &all, 50.0));
    m.notes
        .push(percentile_line("server.job_p90_ms", &all, 90.0));
    for class in [Class::Store, Class::Reduce, Class::Bisect] {
        let name = format!("server.{}_job_p50_ms", class.name());
        m.notes
            .push(percentile_line(&name, &ms_of(Some(class)), 50.0));
    }
    m.notes.push(format!(
        "round = {} jobs (4:1:1 store:reduce:bisect); store.jobs_committed and store.signatures \
         are totals at the end of the run",
        shape(setup.size).0
    ));
    if let Some(sink) = &setup.sink {
        let snapshot = sink.snapshot();
        m.notes.push(format!(
            "daemon counters: jobs_completed {}, dedup_store_hits {}, state_commits {}",
            snapshot.total(trx_observe::Counter::JobsCompleted),
            snapshot.total(trx_observe::Counter::DedupStoreHits),
            snapshot.total(trx_observe::Counter::StateCommits),
        ));
    }
    Ok(m)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut built: Option<Setup> = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let s = setup(ctx)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if let Some(old) = built.replace(s) {
            old.daemon.drain();
        }
    }
    let mut setup = built.ok_or("no set-up ran")?;
    let mut results = Results::default();
    let mut checks = Checks::default();
    let share = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let untraced = setup.phase(share, &mut results, &mut Wire::default(), &mut checks)?;
    let traced = if ctx.trace {
        let mut wire = Wire::default();
        let before = setup.stats(&mut Wire::default())?.duplicates_suppressed;
        let mut traced_results = Results::default();
        trace::set_enabled(true);
        let traced = setup.phase(share, &mut traced_results, &mut wire, &mut checks);
        trace::set_enabled(false);
        let traced = traced?;
        let spans = trace::take_spans();
        let metrics = layer_metrics(&mut setup, &traced, &spans, &wire, &traced_results, before)?;
        results.duplicate_keys.extend(traced_results.duplicate_keys);
        Some((traced, spans, metrics))
    } else {
        None
    };
    check(ctx, &mut setup, &results, &mut checks);
    setup.daemon.drain();
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
    fn same_seed_same_job_list() {
        let list = |seed| {
            (0..120)
                .map(|i| job(seed, Size::Standard, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(list(5), list(5));
        assert_ne!(list(5), list(6));
        let jobs = list(5);
        let count = |c: Class| jobs.iter().filter(|j| j.class == c).count();
        assert_eq!(
            (
                count(Class::Store),
                count(Class::Reduce),
                count(Class::Bisect)
            ),
            (80, 20, 20)
        );
        assert!(jobs
            .iter()
            .all(|j| j.spec.tests == 16 && j.spec.target_count == 0));
        let seeds: std::collections::BTreeSet<u64> =
            jobs.iter().map(|j| j.spec.seed_base).collect();
        assert_eq!(seeds.len(), jobs.len(), "every job in a round is distinct");
    }

    #[test]
    fn store_keys_parse_back() {
        assert_eq!(
            parse_key("t1|crash: boom|x"),
            Some(("t1".to_owned(), BugSignature::Crash("boom|x".to_owned())))
        );
        assert_eq!(
            parse_key("t2|miscompilation"),
            Some(("t2".to_owned(), BugSignature::Miscompilation))
        );
        assert_eq!(parse_key("nonsense"), None);
    }
}
