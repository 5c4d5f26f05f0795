//! A crash-recoverable triage pipeline: campaign → per-bug reduction →
//! deduplication, with a write-ahead log.
//!
//! The paper's workflow (§3.2–§3.5) strings three long-running stages
//! together: run a fuzzing campaign, reduce each bug-triggering test's
//! transformation sequence, and deduplicate the reduced tests by their
//! transformation-type sets. A multi-day run that dies in stage two loses
//! everything. This module makes the whole pipeline a journaled
//! computation: every unit of forward progress is appended to a
//! write-ahead log *before* the pipeline acts on it, and a restarted
//! process replays the journal to resume exactly where the previous
//! process died.
//!
//! # WAL format
//!
//! The journal is a sequence of [`WalRecord`]s, serialised one JSON object
//! per line (externally-tagged enum layout). The first record is always
//! [`WalRecord::Start`], binding the journal to a `(tool, tests,
//! seed_base)` triple; resuming with a mismatched configuration is a typed
//! error, not silent corruption. The records that follow mirror the
//! pipeline's progress at three granularities:
//!
//! * [`WalRecord::Campaign`] — a full campaign checkpoint after every
//!   batch (delegating to [`crate::executor::resume_campaign`]);
//! * [`WalRecord::Probe`] — one record per interestingness-probe
//!   *invocation* during reduction. This is the finest granularity in the
//!   journal, and deliberately so: the reduction search is a pure function
//!   of its probe-outcome stream, so replaying a probe prefix resumes a
//!   reduction mid-query and bit-identically, even under flaky oracles
//!   (see [`trx_reducer::Reducer::reduce_journaled`]);
//! * [`WalRecord::ReductionDone`] / [`WalRecord::DedupObserved`] /
//!   [`WalRecord::Verdict`] — completed reductions and dedup decisions.
//!
//! [`Journal::parse`] tolerates a torn final line — exactly what a crash
//! mid-append leaves behind — and rejects corruption anywhere else.
//!
//! # Resume semantics
//!
//! [`run_pipeline`] takes the parsed journal of the previous incarnation
//! (empty on a fresh start) and a sink receiving every *new* record. The
//! journal prefix is replayed without re-executing any work: the campaign
//! restarts from its last checkpoint, completed reductions are taken from
//! their `ReductionDone` summaries, the in-flight reduction resumes from
//! its probe records, and the dedup state is rebuilt incrementally from
//! the recovered summaries. The record stream a resumed run emits is
//! exactly the suffix the killed run never wrote, so kill → resume →
//! kill → resume chains compose.
//!
//! For deterministic targets (every catalog target, and fault-injected
//! wrappers whose faults do not depend on per-test attempt counters) the
//! resumed run's final report is bit-identical to an uninterrupted run's —
//! the property `chaos_pipeline` checks by killing the pipeline at every
//! journal record.
//!
//! # Budget layering
//!
//! Three nested budgets guard each reduction probe, cheapest-first:
//!
//! 1. the interpreter's own [`trx_ir::interp::ExecConfig`] step / memory /
//!    value budgets — deterministic, per-execution;
//! 2. the executor's retry discipline for suspected hangs and panics
//!    (campaign stage) and the reducer's poison-test quarantine
//!    (reduction stage): a probe that faults `poison_retries` times in one
//!    query resolves the query "not interesting" instead of wedging;
//! 3. the wall-clock watchdog ([`crate::watchdog::supervise`]) as the
//!    last-resort backstop over everything the step budget cannot see.
//!
//! Watchdog timeouts surface as probe faults, so they are journaled like
//! any other probe outcome and flow into the same quarantine accounting.
//!
//! The reduction stage journals transformation sequences, so it reduces
//! spirv-fuzz-style tests; `glsl-fuzz` tests carry empty sequences and
//! pass through with trivial reductions.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use trx_core::{Context, SharedPrefixCache, TransformationKind};
use trx_dedup::{
    DedupBackend, DedupBackendKind, DedupKey, FindingEvidence, FindingOutcome, IncrementalDedup,
};
use trx_observe::{Counter, Scope, SinkHandle};
use trx_reducer::{ProbeFault, ProbeRecord, Reducer, ReducerOptions, ReductionLog, ReductionStats};
use trx_targets::TestTarget;

use crate::campaign::{module_for_target, try_generate_test, BugSignature, Tool};
use crate::corpus::donor_modules;
use crate::errors::HarnessError;
use crate::executor::{
    attempt_classify_cached, resume_campaign_observed, Attempt, CampaignCheckpoint,
    ExecutorConfig, ReferenceOracle,
    ResilientOutcome,
};
use crate::watchdog::{supervise_observed, WatchdogConfig, WatchdogOutcome};

/// Everything that defines one triage pipeline run. Two runs with equal
/// configurations (and deterministic targets) produce identical journals
/// and reports.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// The tool whose tests the campaign generates.
    pub tool: Tool,
    /// Number of campaign tests.
    pub tests: usize,
    /// First seed of the campaign.
    pub seed_base: u64,
    /// Resilient-executor knobs for the campaign stage.
    pub executor: ExecutorConfig,
    /// Reducer knobs (including the poison-test quarantine threshold).
    pub reducer: ReducerOptions,
    /// Wall-clock watchdog for each reduction probe.
    pub watchdog: WatchdogConfig,
    /// Worker threads for the per-bug reduction stage. 1 (the default)
    /// reduces bugs serially, streaming probe records to the WAL as they
    /// happen. Higher values reduce pending bugs concurrently on a shared
    /// worker pool and then emit their records in bug-index order, so the
    /// journal (and therefore kill/resume) stays byte-identical to a
    /// serial run with deterministic targets; the tradeoff is that a crash
    /// mid-stage loses the in-flight bugs' probe records and re-reduces
    /// those bugs on resume.
    pub reduction_threads: usize,
    /// Byte budget of the run-wide [`trx_core::SharedPrefixCache`]: one
    /// sharded, size-aware cache shared by every reduction of the run
    /// (serial or parallel), in place of each reduction's private
    /// edge-count cache. 0 (the default) disables sharing and keeps the
    /// per-reduction caches governed by
    /// [`ReducerOptions::prefix_cache_budget`]. Like the private cache the
    /// shared one is behaviorally invisible: journal bytes and reports are
    /// unchanged at any budget.
    pub cache_budget_bytes: usize,
    /// Shard count of the shared prefix cache (clamped to at least 1;
    /// only meaningful with `cache_budget_bytes > 0`). More shards cut
    /// lock contention between concurrent reductions at the price of a
    /// less precisely balanced per-shard byte budget.
    pub cache_shards: usize,
    /// Which deduplication backend decides the final verdict. The default
    /// ([`DedupBackendKind::TransformationSet`]) is the paper's §3.5 path,
    /// byte-identical to the pre-backend pipeline: journals and reports do
    /// not change shape. Non-default backends compute a
    /// [`TriagedBug::dedup_key`] per reduction (journaled inside
    /// `ReductionDone`, so a resumed run never re-probes) and derive the
    /// verdict from those keys instead of the incremental type-set state.
    pub dedup_backend: DedupBackendKind,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            tool: Tool::SpirvFuzz,
            tests: 16,
            seed_base: 0,
            executor: ExecutorConfig::default(),
            reducer: ReducerOptions::default(),
            watchdog: WatchdogConfig::default(),
            reduction_threads: 1,
            cache_budget_bytes: 0,
            cache_shards: 8,
            dedup_backend: DedupBackendKind::default(),
        }
    }
}

/// Signatures already reduced by earlier jobs, keyed by
/// [`signature_key`] and carrying the interesting transformation kinds of
/// the reduced sequence. A pipeline seeded with this map answers matching
/// bugs as duplicates without re-reducing them (see
/// [`run_pipeline_with_known_observed_cached`]).
pub type KnownSignatures = BTreeMap<String, BTreeSet<TransformationKind>>;

/// The stable cross-job identity of a bug: target name and signature,
/// joined so equal keys mean "the same bug as far as triage is concerned".
#[must_use]
pub fn signature_key(target: &str, signature: &BugSignature) -> String {
    format!("{target}|{signature}")
}

/// The journaled summary of one completed reduction.
///
/// Serialization is hand-written (see below): `dedup_key` is omitted when
/// `None` and defaults to `None` when absent, so reports and journals from
/// default-backend runs are byte-identical to the pre-backend format.
#[derive(Debug, Clone, PartialEq)]
pub struct TriagedBug {
    /// Target the bug was observed on.
    pub target: String,
    /// Campaign test index that first triggered the signature.
    pub test_index: usize,
    /// Seed of that test.
    pub seed: u64,
    /// The bug signature.
    pub signature: BugSignature,
    /// Length of the reduced transformation sequence.
    pub reduced_length: usize,
    /// RQ2 reduction quality: instruction-count delta between the variant
    /// as compiled for the target and its reduced form.
    pub delta_instructions: usize,
    /// Interesting transformation kinds of the reduced sequence — the
    /// dedup key (§3.5).
    pub kinds: BTreeSet<TransformationKind>,
    /// Reduction counters, including probe faults and poisoned queries.
    pub stats: ReductionStats,
    /// The verdict key assigned by a non-default [`DedupBackend`]; `None`
    /// under the default transformation-set path.
    pub dedup_key: Option<DedupKey>,
}

impl Serialize for TriagedBug {
    fn to_content(&self) -> serde::Content {
        use serde::Content;
        let key = |name: &str| Content::Str(name.to_string());
        let mut entries = vec![
            (key("target"), self.target.to_content()),
            (key("test_index"), self.test_index.to_content()),
            (key("seed"), self.seed.to_content()),
            (key("signature"), self.signature.to_content()),
            (key("reduced_length"), self.reduced_length.to_content()),
            (key("delta_instructions"), self.delta_instructions.to_content()),
            (key("kinds"), self.kinds.to_content()),
            (key("stats"), self.stats.to_content()),
        ];
        if let Some(dedup_key) = &self.dedup_key {
            entries.push((key("dedup_key"), dedup_key.to_content()));
        }
        Content::Map(entries)
    }
}

impl Deserialize for TriagedBug {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let entries = serde::content_as_map(content, "TriagedBug")?;
        Ok(TriagedBug {
            target: serde::field(entries, "target", "TriagedBug")?,
            test_index: serde::field(entries, "test_index", "TriagedBug")?,
            seed: serde::field(entries, "seed", "TriagedBug")?,
            signature: serde::field(entries, "signature", "TriagedBug")?,
            reduced_length: serde::field(entries, "reduced_length", "TriagedBug")?,
            delta_instructions: serde::field(entries, "delta_instructions", "TriagedBug")?,
            kinds: serde::field(entries, "kinds", "TriagedBug")?,
            stats: serde::field(entries, "stats", "TriagedBug")?,
            dedup_key: optional_field(entries, "dedup_key")?,
        })
    }
}

/// Looks an *optional* field up in a struct map: absent (or `null`) means
/// `None`. The offline serde stand-in has no `#[serde(default)]`, so
/// backward-compatible additions spell it out.
fn optional_field<T: Deserialize>(
    entries: &[(serde::Content, serde::Content)],
    name: &str,
) -> Result<Option<T>, serde::Error> {
    for (key, value) in entries {
        if matches!(key, serde::Content::Str(k) if k == name) {
            return Option::<T>::from_content(value);
        }
    }
    Ok(None)
}

/// One journal entry. See the module docs for the format.
///
/// Serialization is hand-written to keep the journal format stable: the
/// derived externally-tagged layout is reproduced exactly, and `Start`'s
/// `backend` field is omitted when it is the default kind (and defaults on
/// read), so journals and goldens written before backends existed replay
/// and reproduce byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Header: binds the journal to a pipeline configuration.
    Start {
        /// Display name of the tool.
        tool: String,
        /// Campaign test count.
        tests: usize,
        /// First campaign seed.
        seed_base: u64,
        /// The dedup backend the run was started with; resuming under a
        /// different backend is a [`HarnessError::WalMismatch`].
        backend: DedupBackendKind,
    },
    /// Campaign progress after one batch.
    Campaign(CampaignCheckpoint),
    /// One interestingness-probe invocation during reduction of bug
    /// `bug`; records for one bug appear in invocation order.
    Probe {
        /// Index into the pipeline's deterministic bug list.
        bug: usize,
        /// The probe's outcome.
        record: ProbeRecord,
    },
    /// Reduction of bug `bug` completed with this summary.
    ReductionDone {
        /// Index into the pipeline's deterministic bug list.
        bug: usize,
        /// The completed reduction.
        summary: TriagedBug,
    },
    /// Bug `bug` matched a known cross-job signature and was suppressed
    /// without reduction. Journaled like any other per-bug decision so a
    /// resumed run repeats it instead of re-deciding.
    Duplicate {
        /// Index into the pipeline's deterministic bug list.
        bug: usize,
        /// The matched [`signature_key`].
        key: String,
    },
    /// Bug `bug` was folded into the incremental dedup state as arrival
    /// `arrival`.
    DedupObserved {
        /// Index into the pipeline's deterministic bug list.
        bug: usize,
        /// Arrival index assigned by [`IncrementalDedup::observe`].
        arrival: usize,
    },
    /// The final dedup recommendation: indices of the bugs to keep.
    Verdict {
        /// Kept bug indices, ascending.
        kept: Vec<usize>,
    },
}

impl Serialize for WalRecord {
    fn to_content(&self) -> serde::Content {
        use serde::Content;
        let key = |name: &str| Content::Str(name.to_string());
        let tagged = |tag: &str, value: Content| Content::Map(vec![(key(tag), value)]);
        match self {
            WalRecord::Start { tool, tests, seed_base, backend } => {
                let mut fields = vec![
                    (key("tool"), tool.to_content()),
                    (key("tests"), tests.to_content()),
                    (key("seed_base"), seed_base.to_content()),
                ];
                if !backend.is_default() {
                    fields.push((key("backend"), backend.to_content()));
                }
                tagged("Start", Content::Map(fields))
            }
            WalRecord::Campaign(checkpoint) => tagged("Campaign", checkpoint.to_content()),
            WalRecord::Probe { bug, record } => tagged(
                "Probe",
                Content::Map(vec![
                    (key("bug"), bug.to_content()),
                    (key("record"), record.to_content()),
                ]),
            ),
            WalRecord::ReductionDone { bug, summary } => tagged(
                "ReductionDone",
                Content::Map(vec![
                    (key("bug"), bug.to_content()),
                    (key("summary"), summary.to_content()),
                ]),
            ),
            WalRecord::Duplicate { bug, key: dup_key } => tagged(
                "Duplicate",
                Content::Map(vec![
                    (key("bug"), bug.to_content()),
                    (key("key"), dup_key.to_content()),
                ]),
            ),
            WalRecord::DedupObserved { bug, arrival } => tagged(
                "DedupObserved",
                Content::Map(vec![
                    (key("bug"), bug.to_content()),
                    (key("arrival"), arrival.to_content()),
                ]),
            ),
            WalRecord::Verdict { kept } => tagged(
                "Verdict",
                Content::Map(vec![(key("kept"), kept.to_content())]),
            ),
        }
    }
}

impl Deserialize for WalRecord {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        let entries = serde::content_as_map(content, "WalRecord")?;
        let [(tag, value)] = entries else {
            return Err(serde::Error::msg(
                "WalRecord: expected a single-entry variant map",
            ));
        };
        let serde::Content::Str(tag) = tag else {
            return Err(serde::Error::msg("WalRecord: variant tag must be a string"));
        };
        match tag.as_str() {
            "Start" => {
                let fields = serde::content_as_map(value, "WalRecord::Start")?;
                Ok(WalRecord::Start {
                    tool: serde::field(fields, "tool", "WalRecord::Start")?,
                    tests: serde::field(fields, "tests", "WalRecord::Start")?,
                    seed_base: serde::field(fields, "seed_base", "WalRecord::Start")?,
                    backend: optional_field(fields, "backend")?.unwrap_or_default(),
                })
            }
            "Campaign" => Ok(WalRecord::Campaign(Deserialize::from_content(value)?)),
            "Probe" => {
                let fields = serde::content_as_map(value, "WalRecord::Probe")?;
                Ok(WalRecord::Probe {
                    bug: serde::field(fields, "bug", "WalRecord::Probe")?,
                    record: serde::field(fields, "record", "WalRecord::Probe")?,
                })
            }
            "ReductionDone" => {
                let fields = serde::content_as_map(value, "WalRecord::ReductionDone")?;
                Ok(WalRecord::ReductionDone {
                    bug: serde::field(fields, "bug", "WalRecord::ReductionDone")?,
                    summary: serde::field(fields, "summary", "WalRecord::ReductionDone")?,
                })
            }
            "Duplicate" => {
                let fields = serde::content_as_map(value, "WalRecord::Duplicate")?;
                Ok(WalRecord::Duplicate {
                    bug: serde::field(fields, "bug", "WalRecord::Duplicate")?,
                    key: serde::field(fields, "key", "WalRecord::Duplicate")?,
                })
            }
            "DedupObserved" => {
                let fields = serde::content_as_map(value, "WalRecord::DedupObserved")?;
                Ok(WalRecord::DedupObserved {
                    bug: serde::field(fields, "bug", "WalRecord::DedupObserved")?,
                    arrival: serde::field(fields, "arrival", "WalRecord::DedupObserved")?,
                })
            }
            "Verdict" => {
                let fields = serde::content_as_map(value, "WalRecord::Verdict")?;
                Ok(WalRecord::Verdict {
                    kept: serde::field(fields, "kept", "WalRecord::Verdict")?,
                })
            }
            other => Err(serde::Error::msg(format!(
                "WalRecord: unknown variant `{other}`"
            ))),
        }
    }
}

/// A parsed write-ahead log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// The records, in append order.
    pub records: Vec<WalRecord>,
}

impl Journal {
    /// An empty journal — a fresh start.
    #[must_use]
    pub fn new() -> Self {
        Journal::default()
    }

    /// Parses a JSON-lines journal. A torn *final* line (the footprint of
    /// a crash mid-append) is dropped; an unparseable record anywhere else
    /// is [`HarnessError::WalCorrupt`].
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::WalCorrupt`] for malformed non-final
    /// records.
    pub fn parse(text: &str) -> Result<Journal, HarnessError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut records = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<WalRecord>(line) {
                Ok(record) => records.push(record),
                Err(_) if i + 1 == lines.len() => break,
                Err(e) => {
                    return Err(HarnessError::WalCorrupt {
                        line: i + 1,
                        reason: e.to_string(),
                    });
                }
            }
        }
        Ok(Journal { records })
    }

    /// Serialises one record as a single journal line (no trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Serialization`] if the serializer fails.
    pub fn encode_line(record: &WalRecord) -> Result<String, HarnessError> {
        Ok(serde_json::to_string(record)?)
    }
}

/// Campaign-stage totals for the report's metrics section.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Incidents recorded in the executor's error ledger.
    pub incidents: usize,
    /// Retries spent recovering transient target failures.
    pub retries: u64,
    /// Targets quarantined by the circuit breaker.
    pub quarantined_targets: usize,
    /// Tests the campaign ran to completion.
    pub tests_completed: usize,
    /// Tests skipped because their target was quarantined.
    pub skipped_by_quarantine: u64,
}

/// Reduction-stage totals, summed over every triaged bug.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionMetrics {
    /// Bugs that went through the reduction stage.
    pub bugs_triaged: usize,
    /// Interestingness queries issued by the §3.4 search.
    pub tests_run: usize,
    /// Transformation chunks removed.
    pub chunks_removed: usize,
    /// Instructions removed by the payload shrink phase.
    pub payload_instructions_removed: usize,
    /// Probe invocations that faulted.
    pub probe_faults: usize,
    /// Queries abandoned by the poison-test quarantine.
    pub poisoned_queries: usize,
}

/// Dedup-stage totals (§3.5).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupMetrics {
    /// Type sets fed to the incremental deduplicator.
    pub sets_observed: usize,
    /// Sets that were empty after supporting-type filtering.
    pub empty_sets: usize,
    /// Tests recommended for manual investigation.
    pub kept: usize,
    /// Bugs answered from the cross-job [`KnownSignatures`] map without a
    /// new reduction.
    pub cross_job_duplicates: usize,
}

/// Write-ahead-log totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalMetrics {
    /// Total journal records (replayed prefix plus records emitted this
    /// run).
    pub records: usize,
    /// Probe-granularity records among them.
    pub probe_records: usize,
}

/// The report's `metrics` section.
///
/// Every value here is computed from *resume-invariant* state — campaign
/// checkpoint totals, journaled reduction summaries, and the journal
/// prefix-plus-suffix length — never from live instrumentation, so a
/// resumed run's metrics match an uninterrupted run's byte for byte (the
/// same contract the rest of the report honours).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineMetrics {
    /// Campaign-stage totals.
    pub campaign: CampaignMetrics,
    /// Reduction-stage totals.
    pub reduction: ReductionMetrics,
    /// Dedup-stage totals.
    pub dedup: DedupMetrics,
    /// Journal totals.
    pub wal: WalMetrics,
}

/// The pipeline's final report. Serialisation is deterministic, so two
/// equal reports render to bit-identical JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// Display name of the tool.
    pub tool: String,
    /// Campaign test count.
    pub tests: usize,
    /// First campaign seed.
    pub seed_base: u64,
    /// Tests the campaign processed.
    pub tests_completed: usize,
    /// Incidents the resilient executor absorbed.
    pub incidents: usize,
    /// Quarantined targets as `(name, test index when the breaker
    /// opened)`.
    pub quarantined: Vec<(String, usize)>,
    /// Every triaged bug, in deterministic (target-major, first-seen)
    /// order.
    pub bugs: Vec<TriagedBug>,
    /// Bugs suppressed as cross-job duplicates: their signature matched
    /// the [`KnownSignatures`] map the caller seeded, so no reduction ran
    /// and they do not appear in `bugs`.
    pub duplicates: Vec<DuplicateBug>,
    /// Indices into `bugs` of the tests dedup recommends keeping.
    pub kept: Vec<usize>,
    /// Per-stage counter totals (see [`PipelineMetrics`]).
    pub metrics: PipelineMetrics,
}

impl PipelineReport {
    /// Renders the report as pretty JSON — the artefact the
    /// kill-and-resume equivalence check compares byte-for-byte.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Serialization`] if the serializer fails.
    pub fn to_json(&self) -> Result<String, HarnessError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a report from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Serialization`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, HarnessError> {
        Ok(serde_json::from_str(json)?)
    }
}

/// A bug answered from the cross-job signature store instead of reduced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DuplicateBug {
    /// Target the bug was observed on.
    pub target: String,
    /// Campaign test index that first triggered the signature.
    pub test_index: usize,
    /// Seed of that test.
    pub seed: u64,
    /// The bug signature.
    pub signature: BugSignature,
    /// The [`signature_key`] it matched in the known map.
    pub key: String,
}

/// A bug awaiting reduction, identified deterministically from the
/// campaign outcome: per target (in campaign order), the first test index
/// triggering each distinct signature.
struct PendingBug {
    target_index: usize,
    target: String,
    test_index: usize,
    seed: u64,
    signature: BugSignature,
}

fn select_bugs(
    outcome: &ResilientOutcome,
    target_names: &[String],
    seed_base: u64,
) -> Vec<PendingBug> {
    let mut bugs = Vec::new();
    for (t, cells) in outcome.outcome.per_test.iter().enumerate() {
        let mut seen: BTreeSet<&BugSignature> = BTreeSet::new();
        for (i, cell) in cells.iter().enumerate() {
            if let Some(signature) = cell {
                if seen.insert(signature) {
                    bugs.push(PendingBug {
                        target_index: t,
                        target: target_names[t].clone(),
                        test_index: i,
                        seed: seed_base + i as u64,
                        signature: signature.clone(),
                    });
                }
            }
        }
    }
    bugs
}

/// Journal state recovered by replaying a parsed journal.
#[derive(Default)]
struct Recovered {
    checkpoint: Option<CampaignCheckpoint>,
    probe_logs: BTreeMap<usize, ReductionLog>,
    done: BTreeMap<usize, TriagedBug>,
    duplicates: BTreeSet<usize>,
    dedup_observed: BTreeSet<usize>,
    verdict: Option<Vec<usize>>,
    started: bool,
}

fn replay(journal: &Journal, config: &PipelineConfig) -> Result<Recovered, HarnessError> {
    let mismatch = |reason: String| HarnessError::WalMismatch { reason };
    let mut recovered = Recovered::default();
    for (i, record) in journal.records.iter().enumerate() {
        if i == 0 && !matches!(record, WalRecord::Start { .. }) {
            return Err(mismatch("journal does not begin with a Start record".to_owned()));
        }
        match record {
            WalRecord::Start { tool, tests, seed_base, backend } => {
                if i != 0 {
                    return Err(mismatch(format!(
                        "unexpected second Start record at line {}",
                        i + 1
                    )));
                }
                if tool != config.tool.name() {
                    return Err(mismatch(format!(
                        "journal is for tool {tool:?}, pipeline runs {:?}",
                        config.tool.name()
                    )));
                }
                if *tests != config.tests || *seed_base != config.seed_base {
                    return Err(mismatch(format!(
                        "journal covers {tests} tests from seed {seed_base}, pipeline \
                         runs {} from seed {}",
                        config.tests, config.seed_base
                    )));
                }
                if *backend != config.dedup_backend {
                    return Err(mismatch(format!(
                        "journal was written by dedup backend `{backend}`, pipeline \
                         runs `{}`",
                        config.dedup_backend
                    )));
                }
                recovered.started = true;
            }
            WalRecord::Campaign(cp) => recovered.checkpoint = Some(cp.clone()),
            WalRecord::Probe { bug, record } => {
                recovered.probe_logs.entry(*bug).or_default().records.push(*record);
            }
            WalRecord::ReductionDone { bug, summary } => {
                recovered.done.insert(*bug, summary.clone());
            }
            WalRecord::Duplicate { bug, .. } => {
                recovered.duplicates.insert(*bug);
            }
            WalRecord::DedupObserved { bug, .. } => {
                recovered.dedup_observed.insert(*bug);
            }
            WalRecord::Verdict { kept } => recovered.verdict = Some(kept.clone()),
        }
    }
    Ok(recovered)
}

/// Reduces one bug under the watchdog, journaling every probe invocation
/// through `sink` and resuming from `prior`. Counters and probe/reduction
/// timings stream to `observe` under [`Scope::Reduction`] of `bug_index`.
#[allow(clippy::too_many_arguments)]
fn reduce_bug<T: TestTarget + Send + Sync + 'static>(
    config: &PipelineConfig,
    targets: &Arc<Vec<T>>,
    donors: &[trx_ir::Module],
    bug: &PendingBug,
    bug_index: usize,
    prior: &ReductionLog,
    shared_cache: Option<&Arc<SharedPrefixCache>>,
    backend: Option<&dyn DedupBackend>,
    sink: &mut impl FnMut(&WalRecord),
    observe: &SinkHandle,
) -> Result<TriagedBug, HarnessError> {
    let test = try_generate_test(config.tool, bug.seed, donors)?;
    let original = test.original.clone();
    let original_count =
        module_for_target(config.tool, &original.module).instruction_count();

    let tool = config.tool;
    let watchdog = config.watchdog;
    let target_index = bug.target_index;
    let probe_targets = Arc::clone(targets);
    let probe_signature = bug.signature.clone();
    let scope = Scope::Reduction(bug_index);
    let probe_sink = observe.clone();
    // The reference side of every probe is the same (original, inputs)
    // pair; the oracle prepares it once and caches its execution, so each
    // probe only pays for the variant run (the decode-reuse counters make
    // the saving observable).
    let probe_reference = Arc::new(ReferenceOracle::new(tool, &original));
    // Each probe ships owned clones onto the watchdog's worker thread; at
    // triage scale (one reduction per distinct signature) the clone cost
    // is noise next to the execution itself.
    let probe = move |variant: &Context| -> Result<bool, ProbeFault> {
        let targets = Arc::clone(&probe_targets);
        let reference = Arc::clone(&probe_reference);
        let variant_module = variant.module.clone();
        let observe = probe_sink.clone();
        let outcome = supervise_observed(watchdog, &probe_sink, scope, move || {
            attempt_classify_cached(
                tool,
                &targets[target_index],
                &reference,
                &variant_module,
                &observe,
                scope,
            )
        });
        match outcome {
            WatchdogOutcome::Completed(Attempt::Signature(signature)) => {
                Ok(signature.as_ref() == Some(&probe_signature))
            }
            WatchdogOutcome::Completed(Attempt::Hang) => {
                Err(ProbeFault("interpreter fuel budget exhausted".to_owned()))
            }
            WatchdogOutcome::Completed(Attempt::Panicked(message))
            | WatchdogOutcome::Panicked(message) => Err(ProbeFault(message)),
            WatchdogOutcome::TimedOut { deadline_ms } => Err(ProbeFault(format!(
                "watchdog deadline of {deadline_ms} ms exceeded"
            ))),
        }
    };

    // The fuzzer already materialized the full-sequence variant while
    // generating the test; seeding the reducer with it skips the initial
    // whole-sequence replay (the journal is unaffected — the fuzzer's
    // replay contract guarantees the same context either way).
    let started = observe.enabled().then(std::time::Instant::now);
    let mut reducer = Reducer::new(config.reducer).with_sink(observe.clone(), scope);
    if let Some(cache) = shared_cache {
        reducer = reducer.with_shared_cache(Arc::clone(cache));
    }
    let journaled = reducer.reduce_journaled_seeded(
        &original,
        &test.transformations,
        &test.variant,
        prior,
        probe,
        |_, record| sink(&WalRecord::Probe { bug: bug_index, record }),
    );
    if let Some(started) = started {
        observe.duration(
            scope,
            Counter::ReductionNanos,
            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
    let reduction = journaled.reduction;
    let prepared_reduced = module_for_target(config.tool, &reduction.context.module);
    let reduced_count = prepared_reduced.instruction_count();
    // Non-default backends key the finding now, while the reduced module
    // is in hand; the key is journaled inside `ReductionDone`, so resume
    // replays it instead of re-probing.
    let dedup_key = backend.map(|backend| {
        backend.key(
            &FindingEvidence {
                target: bug.target.clone(),
                outcome: match &bug.signature {
                    BugSignature::Crash(signature) => FindingOutcome::Crash(signature.clone()),
                    BugSignature::Miscompilation => FindingOutcome::Miscompilation,
                },
                sequence: reduction.sequence.clone(),
                module: prepared_reduced,
                inputs: reduction.context.inputs.clone(),
            },
            observe,
        )
    });
    Ok(TriagedBug {
        target: bug.target.clone(),
        test_index: bug.test_index,
        seed: bug.seed,
        signature: bug.signature.clone(),
        reduced_length: reduction.sequence.len(),
        delta_instructions: reduced_count.abs_diff(original_count),
        kinds: trx_dedup::interesting_types_observed(&reduction.sequence, observe, Scope::Dedup),
        stats: reduction.stats,
        dedup_key,
    })
}

/// Runs (or resumes) the triage pipeline.
///
/// `journal` is the parsed WAL of the previous incarnation (empty for a
/// fresh run); `sink` receives every new record in append order — persist
/// each line *before* acting on later results to keep the journal ahead
/// of the computation. See the module docs for the resume semantics.
///
/// # Errors
///
/// Returns [`HarnessError::WalMismatch`] when the journal does not
/// describe this configuration, and propagates campaign checkpoint and
/// test-generation errors.
pub fn run_pipeline<T: TestTarget + Send + Sync + 'static>(
    config: &PipelineConfig,
    targets: &Arc<Vec<T>>,
    journal: &Journal,
    sink: impl FnMut(&WalRecord),
) -> Result<PipelineReport, HarnessError> {
    run_pipeline_observed(config, targets, journal, sink, &SinkHandle::noop())
}

/// [`run_pipeline`] with live instrumentation: every stage streams
/// counters and timings to `observe` (see [`trx_observe`] for the counter
/// glossary and determinism levels).
///
/// The report's [`PipelineMetrics`] section is *not* read back from the
/// sink — it is recomputed from resume-invariant state, so passing a
/// [`SinkHandle::noop`] (as [`run_pipeline`] does) changes nothing about
/// the report or the journal.
///
/// # Errors
///
/// Exactly [`run_pipeline`]'s errors.
pub fn run_pipeline_observed<T: TestTarget + Send + Sync + 'static>(
    config: &PipelineConfig,
    targets: &Arc<Vec<T>>,
    journal: &Journal,
    outer_sink: impl FnMut(&WalRecord),
    observe: &SinkHandle,
) -> Result<PipelineReport, HarnessError> {
    // One shared cache per run, when the byte budget enables it; callers
    // that want the cache to outlive the run (the triage daemon, which
    // keeps one per worker shard across jobs) use
    // [`run_pipeline_with_known_observed_cached`] instead.
    let own_cache = (config.cache_budget_bytes > 0)
        .then(|| Arc::new(SharedPrefixCache::new(config.cache_budget_bytes, config.cache_shards)));
    run_pipeline_with_known_observed_cached(
        config,
        targets,
        &KnownSignatures::new(),
        journal,
        outer_sink,
        observe,
        own_cache.as_ref(),
    )
}

/// [`run_pipeline_observed`] seeded with the signatures earlier jobs
/// already reduced, walking reductions through a caller-owned
/// [`SharedPrefixCache`].
///
/// A bug whose [`signature_key`] appears in `known` is journaled as a
/// [`WalRecord::Duplicate`], reported under [`PipelineReport::duplicates`],
/// bumps `dedup_store_hits` under [`Scope::Dedup`], and costs zero
/// reduction probes. The decision is made once per bug and journaled, so
/// kill/resume replays it instead of re-deciding — resuming with a
/// *different* `known` map still honours the journaled decisions.
///
/// Reductions walk `shared_cache`, or private per-reduction caches when it
/// is `None`, regardless of [`PipelineConfig::cache_budget_bytes`].
/// Passing a cache that outlives the run lets later jobs reuse snapshots
/// earlier jobs paid for; the cache is behaviorally invisible either way,
/// so the journal and report bytes never depend on it.
///
/// # Errors
///
/// Exactly [`run_pipeline`]'s errors.
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_with_known_observed_cached<T: TestTarget + Send + Sync + 'static>(
    config: &PipelineConfig,
    targets: &Arc<Vec<T>>,
    known: &KnownSignatures,
    journal: &Journal,
    mut outer_sink: impl FnMut(&WalRecord),
    observe: &SinkHandle,
    shared_cache: Option<&Arc<SharedPrefixCache>>,
) -> Result<PipelineReport, HarnessError> {
    let recovered = replay(journal, config)?;
    let prior_records = journal.records.len();
    let prior_probe_records = journal
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Probe { .. }))
        .count();
    let mut emitted_records = 0usize;
    let mut emitted_probe_records = 0usize;
    let mut sink = |record: &WalRecord| {
        emitted_records += 1;
        if matches!(record, WalRecord::Probe { .. }) {
            emitted_probe_records += 1;
        }
        observe.count(Scope::Pipeline, Counter::WalRecords, 1);
        outer_sink(record);
    };
    if !recovered.started {
        sink(&WalRecord::Start {
            tool: config.tool.name().to_owned(),
            tests: config.tests,
            seed_base: config.seed_base,
            backend: config.dedup_backend,
        });
    }
    // One backend instance per run: probe-style backends (pass bisection)
    // share their memo across every reduction of the run. `None` keeps the
    // default transformation-set path literally untouched.
    let backend_instance: Option<Box<dyn DedupBackend>> = (!config.dedup_backend.is_default())
        .then(|| config.dedup_backend.instantiate());
    let backend = backend_instance.as_deref();

    // Stage 1: campaign, resuming from the last journaled checkpoint.
    let outcome = resume_campaign_observed(
        config.tool,
        targets.as_slice(),
        config.tests,
        config.seed_base,
        &config.executor,
        recovered.checkpoint,
        |cp| sink(&WalRecord::Campaign(cp.clone())),
        observe,
    )?;

    // Stage 2: the deterministic bug list.
    let target_names: Vec<String> =
        targets.iter().map(|t| t.name().to_owned()).collect();
    let bugs = select_bugs(&outcome, &target_names, config.seed_base);
    observe.count(Scope::Pipeline, Counter::BugsTriaged, bugs.len() as u64);

    // Stage 3: reduction per bug, each one journaled per probe; stage 4
    // interleaved: each completed reduction feeds the incremental dedup
    // state immediately, so dedup survives partial recovery too.
    //
    // With `reduction_threads > 1` the pending bugs are reduced
    // concurrently on one worker pool, their record streams buffered
    // per bug and merged into the WAL in bug-index order — the exact
    // serial emission order, so the journal bytes (and every resume
    // decision derived from them) match a serial run. The reducer itself
    // never touches the pool, so no task nests a `map` on the pool it
    // runs on (which could deadlock).
    let donors = donor_modules();
    // The cross-job duplicate decision per bug: journaled decisions (done
    // or duplicate) always win; only undecided bugs consult `known`.
    let duplicate_keys: BTreeMap<usize, String> = bugs
        .iter()
        .enumerate()
        .filter(|(i, _)| !recovered.done.contains_key(i))
        .filter_map(|(i, bug)| {
            let key = signature_key(&bug.target, &bug.signature);
            (recovered.duplicates.contains(&i) || known.contains_key(&key))
                .then_some((i, key))
        })
        .collect();
    let pending: Vec<usize> = (0..bugs.len())
        .filter(|i| !recovered.done.contains_key(i) && !duplicate_keys.contains_key(i))
        .collect();
    let mut parallel_results: BTreeMap<
        usize,
        Result<(TriagedBug, Vec<WalRecord>), HarnessError>,
    > = BTreeMap::new();
    if config.reduction_threads > 1 && pending.len() > 1 {
        let bugs = &bugs;
        let donors = &donors;
        let pending = &pending;
        let probe_logs = &recovered.probe_logs;
        let outcomes =
            trx_pool::with_pool_observed(config.reduction_threads, observe.clone(), |pool| {
                pool.map(pending.len(), move |j| {
                    let bug_index = pending[j];
                    let prior = probe_logs
                        .get(&bug_index)
                        .cloned()
                        .unwrap_or_default();
                    let mut records = Vec::new();
                    let result = reduce_bug(
                        config,
                        targets,
                        donors,
                        &bugs[bug_index],
                        bug_index,
                        &prior,
                        shared_cache,
                        backend,
                        &mut |record: &WalRecord| records.push(record.clone()),
                        observe,
                    );
                    (bug_index, result.map(|summary| (summary, records)))
                })
            });
        parallel_results.extend(outcomes);
    }

    let mut dedup = IncrementalDedup::new();
    let mut summaries = Vec::with_capacity(bugs.len());
    let mut duplicates = Vec::new();
    for (bug_index, bug) in bugs.iter().enumerate() {
        if let Some(key) = duplicate_keys.get(&bug_index) {
            if !recovered.duplicates.contains(&bug_index) {
                sink(&WalRecord::Duplicate { bug: bug_index, key: key.clone() });
            }
            observe.count(Scope::Dedup, Counter::DedupStoreHits, 1);
            duplicates.push(DuplicateBug {
                target: bug.target.clone(),
                test_index: bug.test_index,
                seed: bug.seed,
                signature: bug.signature.clone(),
                key: key.clone(),
            });
            continue;
        }
        let summary = match recovered.done.get(&bug_index) {
            Some(summary) => summary.clone(),
            None => {
                let summary = match parallel_results.remove(&bug_index) {
                    Some(result) => {
                        // Errors surface in bug order, exactly where the
                        // serial loop would have stopped.
                        let (summary, records) = result?;
                        for record in &records {
                            sink(record);
                        }
                        summary
                    }
                    None => {
                        let prior = recovered
                            .probe_logs
                            .get(&bug_index)
                            .cloned()
                            .unwrap_or_default();
                        reduce_bug(
                            config,
                            targets,
                            &donors,
                            bug,
                            bug_index,
                            &prior,
                            shared_cache,
                            backend,
                            &mut sink,
                            observe,
                        )?
                    }
                };
                sink(&WalRecord::ReductionDone { bug: bug_index, summary: summary.clone() });
                summary
            }
        };
        let arrival = dedup.observe_with_sink(summary.kinds.clone(), observe, Scope::Dedup);
        if !recovered.dedup_observed.contains(&bug_index) {
            sink(&WalRecord::DedupObserved { bug: bug_index, arrival });
        }
        summaries.push(summary);
    }

    // The shared cache's per-shard occupancy and churn counters (all
    // volatile level: contents depend on reduction timing).
    if let Some(cache) = shared_cache {
        cache.flush_to_sink(observe);
    }

    // Stage 4 finale: the dedup verdict. The default backend is the §3.5
    // Figure 6 greedy cover over the incremental type-set state; any other
    // backend recommends over the journaled per-bug keys (recovered
    // summaries keep theirs, so resume never re-probes).
    let kept = match recovered.verdict {
        Some(kept) => kept,
        None => {
            let kept = match backend {
                None => dedup.recommend_with_sink(observe, Scope::Dedup),
                Some(backend) => {
                    let keys: Vec<DedupKey> = summaries
                        .iter()
                        .map(|summary| {
                            summary.dedup_key.clone().unwrap_or_else(|| {
                                // A summary journaled without a key (never
                                // produced by this code path, but cheap to
                                // tolerate) degrades to signature dedup.
                                DedupKey::Signature {
                                    target: summary.target.clone(),
                                    signature: summary.signature.to_string(),
                                }
                            })
                        })
                        .collect();
                    backend.recommend(&keys)
                }
            };
            sink(&WalRecord::Verdict { kept: kept.clone() });
            kept
        }
    };

    // The metrics section is a pure function of resume-invariant state
    // (checkpoint totals, journaled summaries, prefix + suffix record
    // counts), never of the live sink — so resumed, parallel, and
    // uninstrumented runs all report the same bytes.
    let metrics = PipelineMetrics {
        campaign: CampaignMetrics {
            incidents: outcome.ledger.len(),
            retries: outcome.retries_spent,
            quarantined_targets: outcome.quarantined.len(),
            tests_completed: outcome.tests_completed,
            skipped_by_quarantine: outcome.skipped_by_quarantine,
        },
        reduction: ReductionMetrics {
            bugs_triaged: summaries.len(),
            tests_run: summaries.iter().map(|b| b.stats.tests_run).sum(),
            chunks_removed: summaries.iter().map(|b| b.stats.chunks_removed).sum(),
            payload_instructions_removed: summaries
                .iter()
                .map(|b| b.stats.payload_instructions_removed)
                .sum(),
            probe_faults: summaries.iter().map(|b| b.stats.probe_faults).sum(),
            poisoned_queries: summaries.iter().map(|b| b.stats.poisoned_queries).sum(),
        },
        dedup: DedupMetrics {
            sets_observed: summaries.len(),
            empty_sets: summaries.iter().filter(|b| b.kinds.is_empty()).count(),
            kept: kept.len(),
            cross_job_duplicates: duplicates.len(),
        },
        wal: WalMetrics {
            records: prior_records + emitted_records,
            probe_records: prior_probe_records + emitted_probe_records,
        },
    };

    Ok(PipelineReport {
        tool: config.tool.name().to_owned(),
        tests: config.tests,
        seed_base: config.seed_base,
        tests_completed: outcome.tests_completed,
        incidents: outcome.ledger.len(),
        quarantined: outcome.quarantined,
        bugs: summaries,
        duplicates,
        kept,
        metrics,
    })
}

/// Runs (or resumes) the pipeline with the journal persisted at
/// `wal_path`: an existing journal is parsed (rewritten without any torn
/// tail) and resumed; every new record is appended and flushed before the
/// pipeline proceeds.
///
/// # Errors
///
/// Propagates [`run_pipeline`] errors plus [`HarnessError::Io`] for file
/// failures.
pub fn run_pipeline_on_file<T: TestTarget + Send + Sync + 'static>(
    config: &PipelineConfig,
    targets: &Arc<Vec<T>>,
    wal_path: &std::path::Path,
) -> Result<PipelineReport, HarnessError> {
    use std::io::Write;

    let io_err = |e: std::io::Error| HarnessError::Io(e.to_string());
    let text = match std::fs::read_to_string(wal_path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(io_err(e)),
    };
    let journal = Journal::parse(&text)?;
    // Rewrite the journal from its parsed records: appending after a torn
    // tail would corrupt the line the crash interrupted.
    let mut clean = String::new();
    for record in &journal.records {
        clean.push_str(&Journal::encode_line(record)?);
        clean.push('\n');
    }
    std::fs::write(wal_path, &clean).map_err(io_err)?;

    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(wal_path)
        .map_err(io_err)?;
    let mut write_error: Option<std::io::Error> = None;
    let report = run_pipeline(config, targets, &journal, |record| {
        if write_error.is_some() {
            return;
        }
        let append = Journal::encode_line(record)
            .map_err(|e| std::io::Error::other(e.to_string()))
            .and_then(|line| writeln!(file, "{line}").and_then(|()| file.flush()));
        if let Err(e) = append {
            write_error = Some(e);
        }
    })?;
    if let Some(e) = write_error {
        return Err(io_err(e));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_targets::{catalog, FaultPlan, FaultyTarget, Target};

    fn small_config() -> PipelineConfig {
        PipelineConfig {
            tests: 12,
            executor: ExecutorConfig {
                threads: 2,
                checkpoint_interval: 4,
                ..ExecutorConfig::default()
            },
            // Inline probes: deterministic and cheap; the watchdog's
            // threaded path is covered separately.
            watchdog: WatchdogConfig { deadline_ms: 0 },
            ..PipelineConfig::default()
        }
    }

    fn clean_targets() -> Arc<Vec<Target>> {
        Arc::new(catalog::all_targets().into_iter().take(2).collect())
    }

    /// Persistent (attempt-independent) faults: deterministic at probe
    /// granularity, so resume equivalence holds even mid-reduction.
    fn persistent_panic_targets() -> Arc<Vec<FaultyTarget>> {
        let plan = FaultPlan {
            seed: 13,
            panic_probability: 0.2,
            hang_probability: 0.0,
            transient_crash_probability: 0.0,
            flip_flop_probability: 0.0,
            transient_ttl: 1_000_000,
        };
        Arc::new(
            catalog::all_targets()
                .into_iter()
                .take(2)
                .map(|t| FaultyTarget::new(t, plan.clone()))
                .collect(),
        )
    }

    fn run_collecting(
        config: &PipelineConfig,
        targets: &Arc<Vec<Target>>,
        journal: &Journal,
    ) -> (PipelineReport, Vec<WalRecord>) {
        let mut records = Vec::new();
        let report = run_pipeline(config, targets, journal, |r| records.push(r.clone()))
            .expect("pipeline runs");
        (report, records)
    }

    #[test]
    fn pipeline_finds_reduces_and_dedups_bugs() {
        let config = small_config();
        let (report, records) = run_collecting(&config, &clean_targets(), &Journal::new());
        assert_eq!(report.tests_completed, 12);
        assert!(!report.bugs.is_empty(), "12 tests should surface a bug");
        assert!(!report.kept.is_empty());
        assert!(report.kept.len() <= report.bugs.len());
        for bug in &report.bugs {
            assert!(bug.stats.tests_run > 0);
        }
        // The journal starts with a header and ends with the verdict.
        assert!(matches!(records.first(), Some(WalRecord::Start { .. })));
        assert!(matches!(records.last(), Some(WalRecord::Verdict { .. })));
    }

    #[test]
    fn known_signatures_suppress_reduction_without_probes() {
        let config = small_config();
        let targets = clean_targets();
        let (first, _) = run_collecting(&config, &targets, &Journal::new());
        assert!(!first.bugs.is_empty());

        // Seed a second run with everything the first one reduced: every
        // bug is answered as a duplicate and zero probes run.
        let known: KnownSignatures = first
            .bugs
            .iter()
            .map(|b| (signature_key(&b.target, &b.signature), b.kinds.clone()))
            .collect();
        let mut records = Vec::new();
        let rerun = run_pipeline_with_known_observed_cached(
            &config,
            &targets,
            &known,
            &Journal::new(),
            |r| records.push(r.clone()),
            &SinkHandle::noop(),
            None,
        )
        .expect("seeded rerun");
        assert!(rerun.bugs.is_empty());
        assert!(rerun.kept.is_empty());
        assert_eq!(rerun.duplicates.len(), first.bugs.len());
        assert_eq!(rerun.metrics.reduction.tests_run, 0);
        assert_eq!(rerun.metrics.reduction.bugs_triaged, 0);
        assert_eq!(rerun.metrics.dedup.cross_job_duplicates, first.bugs.len());
        for (dup, bug) in rerun.duplicates.iter().zip(&first.bugs) {
            assert_eq!(dup.key, signature_key(&bug.target, &bug.signature));
            assert_eq!(dup.signature, bug.signature);
        }
        assert!(records.iter().any(|r| matches!(r, WalRecord::Duplicate { .. })));
        assert!(!records.iter().any(|r| matches!(r, WalRecord::Probe { .. })));
    }

    #[test]
    fn seeded_pipeline_kill_and_resume_is_bit_identical() {
        // The duplicate decision is journaled, so kill/resume with the
        // same known map replays it to byte-identical artifacts — and a
        // resume that lost the known map (empty) still honours decisions
        // already in the journal.
        let config = small_config();
        let targets = clean_targets();
        let (first, _) = run_collecting(&config, &targets, &Journal::new());
        let known: KnownSignatures = first
            .bugs
            .iter()
            .take(1)
            .map(|b| (signature_key(&b.target, &b.signature), b.kinds.clone()))
            .collect();

        let mut records = Vec::new();
        let golden = run_pipeline_with_known_observed_cached(
            &config,
            &targets,
            &known,
            &Journal::new(),
            |r| records.push(r.clone()),
            &SinkHandle::noop(),
            None,
        )
        .expect("seeded golden run");
        assert_eq!(golden.duplicates.len(), 1);
        let golden_json = golden.to_json().expect("serialises");

        for k in 0..=records.len() {
            let prefix = Journal { records: records[..k].to_vec() };
            let mut emitted = Vec::new();
            let resumed = run_pipeline_with_known_observed_cached(
                &config,
                &targets,
                &known,
                &prefix,
                |r| emitted.push(r.clone()),
                &SinkHandle::noop(),
                None,
            )
            .expect("seeded resume");
            assert_eq!(resumed.to_json().expect("serialises"), golden_json);
            assert_eq!(emitted, records[k..].to_vec());
        }

        // Resume past the journaled Duplicate record with no known map:
        // the journal alone carries the decision.
        let decided = records
            .iter()
            .position(|r| matches!(r, WalRecord::Duplicate { .. }))
            .expect("a duplicate was journaled")
            + 1;
        let prefix = Journal { records: records[..decided].to_vec() };
        let resumed = run_pipeline(&config, &targets, &prefix, |_| {}).expect("bare resume");
        assert_eq!(resumed.to_json().expect("serialises"), golden_json);
    }

    #[test]
    fn pipeline_report_is_deterministic() {
        let config = small_config();
        let (a, records_a) = run_collecting(&config, &clean_targets(), &Journal::new());
        let (b, records_b) = run_collecting(&config, &clean_targets(), &Journal::new());
        assert_eq!(a, b);
        assert_eq!(records_a, records_b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn parallel_reduction_matches_serial_byte_for_byte() {
        let serial = small_config();
        let parallel = PipelineConfig { reduction_threads: 4, ..small_config() };
        let (report_s, records_s) = run_collecting(&serial, &clean_targets(), &Journal::new());
        let (report_p, records_p) = run_collecting(&parallel, &clean_targets(), &Journal::new());
        assert_eq!(report_s, report_p);
        assert_eq!(records_s, records_p, "parallel reduction reordered the WAL");
        assert_eq!(report_s.to_json().unwrap(), report_p.to_json().unwrap());
    }

    #[test]
    fn shared_cache_pipeline_matches_private_byte_for_byte() {
        // The run-wide shared prefix cache must be behaviorally invisible:
        // WAL bytes and reports match the private-cache run whether the
        // reductions are serial or concurrent, and whatever the shard
        // count or byte budget (including one tight enough to evict).
        let (golden, records) = run_collecting(&small_config(), &clean_targets(), &Journal::new());
        for (budget, shards, threads) in [
            (4 << 20, 1, 1),
            (4 << 20, 4, 4),
            (16 << 10, 2, 4),
        ] {
            let config = PipelineConfig {
                cache_budget_bytes: budget,
                cache_shards: shards,
                reduction_threads: threads,
                ..small_config()
            };
            let (report, shared_records) =
                run_collecting(&config, &clean_targets(), &Journal::new());
            assert_eq!(
                report, golden,
                "budget {budget}, {shards} shards, {threads} threads: reports diverged"
            );
            assert_eq!(
                shared_records, records,
                "budget {budget}, {shards} shards, {threads} threads: WAL diverged"
            );
        }
    }

    #[test]
    fn caller_owned_cache_is_reused_across_runs() {
        // The daemon hands each worker shard a cache that outlives any one
        // job; a second identical run over the same cache must produce the
        // same bytes while paying fewer transformation applications.
        let config = PipelineConfig { cache_budget_bytes: 8 << 20, ..small_config() };
        let targets = clean_targets();
        let cache = Arc::new(SharedPrefixCache::new(
            config.cache_budget_bytes,
            config.cache_shards,
        ));
        let run = || {
            let mut records = Vec::new();
            let report = run_pipeline_with_known_observed_cached(
                &config,
                &targets,
                &KnownSignatures::new(),
                &Journal::new(),
                |r| records.push(r.clone()),
                &SinkHandle::noop(),
                Some(&cache),
            )
            .expect("pipeline runs");
            (report, records)
        };
        let (first, records_first) = run();
        let (second, records_second) = run();
        assert_eq!(first, second);
        assert_eq!(records_first, records_second);
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "a rerun over a warm cross-job cache should hit: {stats:?}"
        );
        cache.debug_check_accounting();
    }

    #[test]
    fn kill_at_any_wal_record_resumes_bit_identically() {
        let config = small_config();
        let targets = clean_targets();
        let (golden, records) = run_collecting(&config, &targets, &Journal::new());
        let golden_json = golden.to_json().expect("report serialises");

        // Simulate a kill after every k-th append (stride keeps the test
        // quick; k = 0 is a fresh start, k = len is a finished journal).
        let stride = (records.len() / 16).max(1);
        let mut cuts: Vec<usize> = (0..=records.len()).step_by(stride).collect();
        if cuts.last() != Some(&records.len()) {
            cuts.push(records.len());
        }
        for k in cuts {
            let prefix = Journal { records: records[..k].to_vec() };
            let mut emitted = Vec::new();
            let resumed =
                run_pipeline(&config, &clean_targets(), &prefix, |r| emitted.push(r.clone()))
                    .expect("resume runs");
            assert_eq!(
                resumed.to_json().expect("report serialises"),
                golden_json,
                "report diverged resuming after record {k}"
            );
            assert_eq!(
                emitted,
                records[k..].to_vec(),
                "journal suffix diverged resuming after record {k}"
            );
        }
    }

    #[test]
    fn kill_and_resume_with_parallel_reduction_is_bit_identical() {
        // Satellite (f): the WAL is a merge of per-bug buffers emitted in
        // bug order, so aborting mid-run and resuming with the parallel
        // reducer enabled must still land on the serial golden bytes.
        let serial = small_config();
        let parallel = PipelineConfig { reduction_threads: 4, ..small_config() };
        let (golden, records) = run_collecting(&serial, &clean_targets(), &Journal::new());
        let golden_json = golden.to_json().expect("report serialises");

        let stride = (records.len() / 8).max(1);
        let mut cuts: Vec<usize> = (0..=records.len()).step_by(stride).collect();
        if cuts.last() != Some(&records.len()) {
            cuts.push(records.len());
        }
        for k in cuts {
            let prefix = Journal { records: records[..k].to_vec() };
            let mut emitted = Vec::new();
            let resumed =
                run_pipeline(&parallel, &clean_targets(), &prefix, |r| emitted.push(r.clone()))
                    .expect("parallel resume runs");
            assert_eq!(
                resumed.to_json().expect("report serialises"),
                golden_json,
                "parallel resume report diverged after record {k}"
            );
            assert_eq!(
                emitted,
                records[k..].to_vec(),
                "parallel resume journal suffix diverged after record {k}"
            );
        }
    }

    #[test]
    fn pre_backend_journal_lines_parse_to_the_default_backend() {
        // A Start line written before dedup backends existed has no
        // `backend` key — it must parse to the default kind, and a
        // default-backend Start must serialize without the key (golden
        // WALs stay byte-identical).
        let old_line = r#"{"Start":{"tool":"spirv-fuzz","tests":12,"seed_base":0}}"#;
        let parsed: WalRecord = serde_json::from_str(old_line).expect("old Start parses");
        assert_eq!(
            parsed,
            WalRecord::Start {
                tool: "spirv-fuzz".to_owned(),
                tests: 12,
                seed_base: 0,
                backend: DedupBackendKind::TransformationSet,
            }
        );
        assert_eq!(Journal::encode_line(&parsed).expect("encodes"), old_line);

        // A non-default backend is spelled out and round-trips.
        let start = WalRecord::Start {
            tool: "spirv-fuzz".to_owned(),
            tests: 12,
            seed_base: 0,
            backend: DedupBackendKind::PassBisection,
        };
        let line = Journal::encode_line(&start).expect("encodes");
        assert!(line.contains("\"backend\":\"pass-bisection\""), "{line}");
        let reparsed: WalRecord = serde_json::from_str(&line).expect("reparses");
        assert_eq!(reparsed, start);
    }

    #[test]
    fn non_default_backends_key_every_bug_and_recommend_from_keys() {
        for backend in [DedupBackendKind::PassBisection, DedupBackendKind::CrashSignature] {
            let config = PipelineConfig { dedup_backend: backend, ..small_config() };
            let (report, records) = run_collecting(&config, &clean_targets(), &Journal::new());
            assert!(!report.bugs.is_empty());
            for bug in &report.bugs {
                let key = bug.dedup_key.as_ref().expect("backend runs key every bug");
                match backend {
                    DedupBackendKind::PassBisection => assert!(
                        matches!(key, DedupKey::Pass { .. } | DedupKey::Unresolved { .. }),
                        "unexpected bisection key {key:?}"
                    ),
                    DedupBackendKind::CrashSignature => {
                        assert!(matches!(key, DedupKey::Signature { .. }))
                    }
                    DedupBackendKind::TransformationSet => unreachable!(),
                }
            }
            // The verdict keeps exactly the first bug of each distinct key
            // (both non-default backends use the first-per-key rule).
            let mut seen = BTreeSet::new();
            let expected: Vec<usize> = report
                .bugs
                .iter()
                .enumerate()
                .filter(|(_, b)| seen.insert(b.dedup_key.clone()))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(report.kept, expected);

            // Kill/resume equivalence holds under backend runs too: resume
            // from every journal prefix and compare reports bytewise. The
            // journaled keys make the resumed verdict probe-free.
            let golden = report.to_json().expect("renders");
            for k in [1, records.len() / 2, records.len().saturating_sub(1)] {
                let journal = Journal { records: records[..k].to_vec() };
                let (resumed, _) = run_collecting(&config, &clean_targets(), &journal);
                assert_eq!(resumed.to_json().expect("renders"), golden);
            }
        }
    }

    #[test]
    fn journal_survives_text_round_trip_and_torn_tail() {
        let config = small_config();
        let (_, records) = run_collecting(&config, &clean_targets(), &Journal::new());
        let mut text = String::new();
        for record in &records {
            text.push_str(&Journal::encode_line(record).expect("encodes"));
            text.push('\n');
        }
        let parsed = Journal::parse(&text).expect("parses");
        assert_eq!(parsed.records, records);

        // A crash mid-append leaves a torn final line: parse drops it.
        let torn = format!("{text}{{\"Probe\":{{\"bug\":0,\"rec");
        let parsed = Journal::parse(&torn).expect("torn tail tolerated");
        assert_eq!(parsed.records, records);

        // Corruption anywhere else is an error.
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{ not json";
        let corrupt = lines.join("\n");
        let err = Journal::parse(&corrupt).unwrap_err();
        assert!(matches!(err, HarnessError::WalCorrupt { line: 2, .. }));
    }

    #[test]
    fn mismatched_journal_is_rejected() {
        let config = small_config();
        let targets = clean_targets();
        let journal = Journal {
            records: vec![WalRecord::Start {
                tool: config.tool.name().to_owned(),
                tests: config.tests + 1,
                seed_base: config.seed_base,
                backend: DedupBackendKind::default(),
            }],
        };
        let err = run_pipeline(&config, &targets, &journal, |_| {}).unwrap_err();
        assert!(matches!(err, HarnessError::WalMismatch { .. }));

        // A journal started under one dedup backend cannot resume under
        // another.
        let journal = Journal {
            records: vec![WalRecord::Start {
                tool: config.tool.name().to_owned(),
                tests: config.tests,
                seed_base: config.seed_base,
                backend: DedupBackendKind::CrashSignature,
            }],
        };
        let err = run_pipeline(&config, &targets, &journal, |_| {}).unwrap_err();
        assert!(matches!(err, HarnessError::WalMismatch { .. }));

        // A journal that does not open with a header is equally rejected.
        let headless = Journal { records: vec![WalRecord::Verdict { kept: vec![] }] };
        let err = run_pipeline(&config, &targets, &headless, |_| {}).unwrap_err();
        assert!(matches!(err, HarnessError::WalMismatch { .. }));
    }

    #[test]
    fn faulting_probes_are_quarantined_not_fatal() {
        let config = small_config();
        let targets = persistent_panic_targets();
        let mut records = Vec::new();
        let report = run_pipeline(&config, &targets, &Journal::new(), |r| {
            records.push(r.clone());
        })
        .expect("pipeline absorbs injected faults");
        assert_eq!(report.tests_completed, 12);
        // Persistent panics surface as probe faults during reduction and
        // as incidents during the campaign; neither kills the pipeline.
        let total_faults: usize =
            report.bugs.iter().map(|b| b.stats.probe_faults).sum();
        assert!(
            report.incidents > 0 || total_faults > 0,
            "a 20% persistent panic plan must fault somewhere"
        );
    }

    #[test]
    fn chaotic_pipeline_resumes_bit_identically() {
        // Persistent faults are attempt-independent, so even a journal cut
        // mid-reduction resumes onto the same probe stream.
        let config = small_config();
        let mut records = Vec::new();
        let golden = run_pipeline(&config, &persistent_panic_targets(), &Journal::new(), |r| {
            records.push(r.clone());
        })
        .expect("golden chaotic run");
        let mid = records.len() / 2;
        let prefix = Journal { records: records[..mid].to_vec() };
        let mut emitted = Vec::new();
        let resumed =
            run_pipeline(&config, &persistent_panic_targets(), &prefix, |r| {
                emitted.push(r.clone())
            })
            .expect("resumed chaotic run");
        assert_eq!(resumed, golden);
        assert_eq!(emitted, records[mid..].to_vec());
    }

    #[test]
    fn file_backed_pipeline_resumes_from_disk() {
        let config = small_config();
        let dir = std::env::temp_dir().join("trx-pipeline-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let wal = dir.join(format!("wal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&wal);

        let full = run_pipeline_on_file(&config, &clean_targets(), &wal)
            .expect("fresh file-backed run");

        // Truncate the on-disk journal to a prefix with a torn tail, as a
        // kill mid-append would leave it, then resume.
        let text = std::fs::read_to_string(&wal).expect("journal written");
        let lines: Vec<&str> = text.lines().collect();
        let keep = lines.len() / 2;
        let mut truncated = lines[..keep].join("\n");
        truncated.push_str("\n{\"Probe\":{\"bug\":0,\"rec");
        std::fs::write(&wal, truncated).expect("truncate journal");

        let resumed = run_pipeline_on_file(&config, &clean_targets(), &wal)
            .expect("resumed file-backed run");
        assert_eq!(resumed, full);
        // The rewritten journal matches the uninterrupted run's, line for
        // line.
        let final_text = std::fs::read_to_string(&wal).expect("journal rewritten");
        assert_eq!(final_text, text);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn report_round_trips_through_json() {
        let config = small_config();
        let (report, _) = run_collecting(&config, &clean_targets(), &Journal::new());
        let json = report.to_json().expect("serialises");
        let back = PipelineReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
    }
}
