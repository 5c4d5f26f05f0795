//! A resilient campaign executor: retry, quarantine, checkpoint/resume.
//!
//! [`crate::campaign::run_campaign`] assumes a well-behaved target: workers
//! never panic, compiled code never spins, and every `(test, target)` cell
//! resolves on the first try. Real compiler-testing campaigns (the paper's
//! §4.1 runs span days) meet none of those assumptions — harnesses like
//! gfauto wrap every tool invocation in timeouts and retries precisely
//! because drivers wedge, crash spuriously, and flake.
//!
//! This module provides the hardened equivalent:
//!
//! * every worker runs under [`std::panic::catch_unwind`], so an injected
//!   (or real) panic becomes a ledger entry instead of tearing down the run;
//! * suspected hangs — a [`Fault::StepLimitExceeded`] out of the
//!   interpreter's fuel budget — and panics are retried up to a bounded
//!   budget with deterministic exponential backoff;
//! * a per-target circuit breaker quarantines a target after a configurable
//!   number of *consecutive* hard failures, so one wedged driver cannot
//!   starve the rest of the campaign;
//! * crash signatures can be re-confirmed; a disagreeing re-run is recorded
//!   as an [`FailureKind::UnstableOutcome`] (flaky) observation;
//! * progress is checkpointed every `checkpoint_interval` tests and can be
//!   resumed bit-identically.
//!
//! # Determinism
//!
//! Tests are processed in fixed-size batches (one batch per checkpoint
//! interval). Within a batch, tests run in parallel, but each `(test,
//! target)` cell is resolved entirely by one worker, and the quarantine set
//! is a snapshot taken at the batch boundary — so no worker's behaviour
//! depends on thread scheduling. After the batch, results are folded
//! serially in test order. Two runs with the same seeds, targets and
//! configuration therefore produce identical outcomes and ledgers.
//!
//! Note one deliberate divergence from [`crate::campaign::classify`]: the
//! plain oracle reports a step-limit fault as a crash signature (wrong code
//! that diverges *is* a compiler bug), while this executor treats it as a
//! suspected harness-level hang to retry and, if persistent, quarantine.
//! Campaigns that want step-limit faults classified as bugs should raise
//! the target's fuel budget well above any legitimate execution.

use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use trx_core::Context;
use trx_ir::{Fault, Inputs, Module};
use trx_observe::{Counter, Scope, SinkHandle};
use trx_targets::{TargetResult, TestTarget};

use crate::campaign::{
    module_for_target, try_generate_test, BugSignature, CampaignOutcome, Tool,
};
use crate::corpus::donor_modules;
use crate::errors::{panic_message, HarnessError};

/// Tuning knobs for the resilient executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Retries per `(test, target)` cell after the first attempt fails with
    /// a panic or suspected hang.
    pub max_retries: u32,
    /// Base of the (logical) exponential backoff: retry `k` adds
    /// `backoff_base_ms << (k - 1)` milliseconds. Recorded in the ledger,
    /// not slept — the simulated targets fail deterministically, so real
    /// waiting would only slow the experiments down.
    pub backoff_base_ms: u64,
    /// Consecutive hard failures (panic or hang, post-retry) before a
    /// target is quarantined for the rest of the campaign.
    pub quarantine_threshold: u32,
    /// Extra confirmation runs for an observed crash signature. A
    /// disagreeing confirmation is recorded as an unstable outcome and the
    /// last observation wins.
    pub crash_confirm_runs: u32,
    /// Tests per batch; a checkpoint is emitted after each batch.
    pub checkpoint_interval: usize,
    /// Worker threads; `0` means "one per available core".
    pub threads: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_retries: 2,
            backoff_base_ms: 10,
            quarantine_threshold: 4,
            crash_confirm_runs: 1,
            checkpoint_interval: 8,
            threads: 0,
        }
    }
}

/// Why a `(test, target)` cell (or a whole test) failed to resolve cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The test itself could not be generated (invalid reference).
    GenerationFailed,
    /// The worker panicked on every attempt.
    Panic,
    /// Every attempt exhausted the interpreter fuel budget.
    Hang,
    /// A crash signature did not reproduce consistently across
    /// confirmation runs.
    UnstableOutcome,
    /// The target was quarantined by the circuit breaker.
    Quarantined,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FailureKind::GenerationFailed => "generation-failed",
            FailureKind::Panic => "panic",
            FailureKind::Hang => "hang",
            FailureKind::UnstableOutcome => "unstable-outcome",
            FailureKind::Quarantined => "quarantined",
        };
        f.write_str(name)
    }
}

/// One recorded incident.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Index of the test (0-based within the campaign).
    pub test_index: usize,
    /// The target involved, if the incident was target-specific.
    pub target: Option<String>,
    /// What went wrong.
    pub kind: FailureKind,
    /// Attempts spent on the cell (1 = no retries).
    pub attempts: u32,
    /// Total logical backoff accumulated across retries.
    pub backoff_ms: u64,
    /// Human-readable detail (panic payload, fault text, ...).
    pub message: String,
}

/// The campaign's error ledger: every incident the executor absorbed
/// instead of crashing. An empty ledger after a chaos campaign means the
/// fault injector never fired, not that the executor is perfect.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorLedger {
    /// Incidents in the order they were folded (test order, then target
    /// order — deterministic).
    pub entries: Vec<LedgerEntry>,
}

impl ErrorLedger {
    /// Number of recorded incidents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing went wrong.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of incidents of one kind.
    #[must_use]
    pub fn count(&self, kind: FailureKind) -> usize {
        self.entries.iter().filter(|e| e.kind == kind).count()
    }
}

/// A serialisable snapshot of campaign progress, emitted after every batch.
///
/// Feeding the snapshot back into [`resume_campaign`] continues the run
/// from `completed_tests` and produces the same final outcome as an
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    /// The tool under campaign (display name, stable across versions).
    pub tool: String,
    /// First seed of the campaign.
    pub seed_base: u64,
    /// Total tests the campaign will run.
    pub total_tests: usize,
    /// Target names, in campaign order.
    pub target_names: Vec<String>,
    /// Tests fully folded so far.
    pub completed_tests: usize,
    /// `per_test[i][t]` = signature test `i` triggered on target `t`
    /// (row-major: one row per completed test).
    pub per_test: Vec<Vec<Option<BugSignature>>>,
    /// Incidents so far.
    pub ledger: ErrorLedger,
    /// Circuit-breaker state: consecutive hard failures per target.
    pub consecutive_failures: Vec<u32>,
    /// For each target, the test index at which it was quarantined.
    pub quarantined_at: Vec<Option<usize>>,
    /// Retries spent so far.
    pub retries_spent: u64,
    /// Cells skipped because their target was quarantined.
    pub skipped_by_quarantine: u64,
}

impl CampaignCheckpoint {
    /// Serialises the checkpoint to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Serialization`] if the serializer fails.
    pub fn to_json(&self) -> Result<String, HarnessError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Serialization`] on malformed input.
    pub fn from_json(json: &str) -> Result<Self, HarnessError> {
        Ok(serde_json::from_str(json)?)
    }

    fn validate<T: TestTarget>(
        &self,
        tool: Tool,
        targets: &[T],
        tests: usize,
        seed_base: u64,
    ) -> Result<(), HarnessError> {
        let mismatch = |reason: String| HarnessError::CheckpointMismatch { reason };
        if self.tool != tool.name() {
            return Err(mismatch(format!(
                "checkpoint is for tool {:?}, campaign runs {:?}",
                self.tool,
                tool.name()
            )));
        }
        if self.seed_base != seed_base {
            return Err(mismatch(format!(
                "checkpoint seed base {} != campaign seed base {seed_base}",
                self.seed_base
            )));
        }
        if self.total_tests != tests {
            return Err(mismatch(format!(
                "checkpoint expects {} tests, campaign runs {tests}",
                self.total_tests
            )));
        }
        let names: Vec<&str> = targets.iter().map(TestTarget::name).collect();
        if self.target_names != names {
            return Err(mismatch(format!(
                "checkpoint targets {:?} != campaign targets {names:?}",
                self.target_names
            )));
        }
        if self.completed_tests > tests
            || self.per_test.len() != self.completed_tests
            || self.consecutive_failures.len() != names.len()
            || self.quarantined_at.len() != names.len()
            || self.per_test.iter().any(|row| row.len() != names.len())
        {
            return Err(mismatch("progress arrays are inconsistent".to_owned()));
        }
        Ok(())
    }
}

/// The result of a resilient campaign: the (possibly partial) outcome plus
/// everything the executor absorbed along the way.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// Per-target signatures, exactly as [`CampaignOutcome`] shapes them.
    /// Cells that never resolved (persistent hang/panic, quarantine,
    /// generation failure) hold `None` — the campaign degrades to partial
    /// results instead of dying.
    pub outcome: CampaignOutcome,
    /// Every incident, in deterministic order.
    pub ledger: ErrorLedger,
    /// Quarantined targets as `(name, test index when the breaker opened)`.
    pub quarantined: Vec<(String, usize)>,
    /// Total retries spent across all cells.
    pub retries_spent: u64,
    /// Cells skipped because their target was quarantined.
    pub skipped_by_quarantine: u64,
    /// Tests processed (always equals the requested count; individual
    /// cells may still be `None`).
    pub tests_completed: usize,
}

/// How one attempt at a `(test, target)` cell ended.
#[derive(Debug)]
pub enum Attempt {
    /// The oracle resolved (possibly to "no bug").
    Signature(Option<BugSignature>),
    /// The fuel budget ran out — a suspected hang.
    Hang,
    /// The worker panicked with this message.
    Panicked(String),
}

/// `classify`, but separating suspected hangs from bug signatures and
/// catching panics. See the module docs for the hang-vs-bug tradeoff.
pub(crate) fn attempt_classify<T: TestTarget + ?Sized>(
    tool: Tool,
    target: &T,
    original: &Context,
    variant_module: &Module,
    inputs: &Inputs,
) -> Attempt {
    let run = || {
        let original_module = module_for_target(tool, &original.module);
        let prepared_variant = module_for_target(tool, variant_module);
        match target.execute(&prepared_variant, inputs) {
            TargetResult::RuntimeFault(Fault::StepLimitExceeded) => Attempt::Hang,
            TargetResult::CompilerCrash(signature) => {
                Attempt::Signature(Some(BugSignature::Crash(signature)))
            }
            TargetResult::RuntimeFault(fault) => Attempt::Signature(Some(
                BugSignature::Crash(format!("runtime fault: {fault}")),
            )),
            TargetResult::Executed(variant_result) => {
                match target.execute_reference(&original_module, inputs) {
                    TargetResult::RuntimeFault(Fault::StepLimitExceeded) => Attempt::Hang,
                    TargetResult::Executed(original_result) => Attempt::Signature(
                        (original_result != variant_result)
                            .then_some(BugSignature::Miscompilation),
                    ),
                    _ => Attempt::Signature(None),
                }
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(attempt) => attempt,
        Err(payload) => Attempt::Panicked(panic_message(payload)),
    }
}

/// The fixed reference side of one reduction's interestingness probes.
///
/// Every probe of a reduction cross-checks the same `(original module,
/// inputs)` pair, yet [`attempt_classify`] re-prepares and re-executes the
/// reference — a fresh module decode and interpreter run per probe. The
/// reference path is deterministic by contract ([`TestTarget::
/// execute_reference`] stays clean even under fault injection), so its
/// result can be computed once per reduction and replayed from memory.
///
/// The first fill happens under the lock, so probes sharing one oracle
/// across threads still produce exactly one execution — keeping the
/// engine-level `modules_decoded`/`decode_reuses` counters
/// thread-invariant.
pub struct ReferenceOracle {
    /// The already-prepared (tool-encoded and re-decoded) reference module.
    module: Module,
    inputs: Inputs,
    result: std::sync::Mutex<Option<TargetResult>>,
}

impl ReferenceOracle {
    /// Prepares the reference side of a reduction's probes: `original` is
    /// the unreduced context the variant is cross-checked against.
    #[must_use]
    pub fn new(tool: Tool, original: &Context) -> Self {
        ReferenceOracle {
            module: module_for_target(tool, &original.module),
            inputs: original.inputs.clone(),
            result: std::sync::Mutex::new(None),
        }
    }

    /// The reference execution result, computed on first use and replayed
    /// from memory afterwards. Counters: one `ModulesDecoded` per fill, one
    /// `DecodeReuses` per replay, both under `scope`.
    fn result<T: TestTarget + ?Sized>(
        &self,
        target: &T,
        observe: &SinkHandle,
        scope: Scope,
    ) -> TargetResult {
        let mut slot = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(cached) = slot.as_ref() {
            observe.count(scope, Counter::DecodeReuses, 1);
            return cached.clone();
        }
        let result = target.execute_reference(&self.module, &self.inputs);
        observe.count(scope, Counter::ModulesDecoded, 1);
        *slot = Some(result.clone());
        result
    }
}

/// [`attempt_classify`] with the reference side served from a
/// per-reduction [`ReferenceOracle`] instead of re-executed per probe. The
/// variant still runs live every time — only the fixed reference half is
/// cached, so the verdict stream is identical to the uncached oracle.
pub fn attempt_classify_cached<T: TestTarget + ?Sized>(
    tool: Tool,
    target: &T,
    reference: &ReferenceOracle,
    variant_module: &Module,
    observe: &SinkHandle,
    scope: Scope,
) -> Attempt {
    let run = || {
        let prepared_variant = module_for_target(tool, variant_module);
        match target.execute(&prepared_variant, &reference.inputs) {
            TargetResult::RuntimeFault(Fault::StepLimitExceeded) => Attempt::Hang,
            TargetResult::CompilerCrash(signature) => {
                Attempt::Signature(Some(BugSignature::Crash(signature)))
            }
            TargetResult::RuntimeFault(fault) => Attempt::Signature(Some(
                BugSignature::Crash(format!("runtime fault: {fault}")),
            )),
            TargetResult::Executed(variant_result) => {
                match reference.result(target, observe, scope) {
                    TargetResult::RuntimeFault(Fault::StepLimitExceeded) => Attempt::Hang,
                    TargetResult::Executed(original_result) => Attempt::Signature(
                        (original_result != variant_result)
                            .then_some(BugSignature::Miscompilation),
                    ),
                    _ => Attempt::Signature(None),
                }
            }
        }
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(attempt) => attempt,
        Err(payload) => Attempt::Panicked(panic_message(payload)),
    }
}

/// How one `(test, target)` cell resolved after retries and confirmation.
enum CellResolution {
    /// The target was quarantined before this batch started.
    Skipped,
    /// The oracle resolved; `unstable` carries a disagreement message when
    /// crash confirmation flip-flopped.
    Resolved {
        cell: Option<BugSignature>,
        retries: u32,
        unstable: Option<String>,
        confirm_runs: u32,
    },
    /// All attempts failed the same hard way.
    Failed {
        kind: FailureKind,
        attempts: u32,
        backoff_ms: u64,
        message: String,
    },
}

/// Everything one worker produced for one test.
struct RowResult {
    generation_error: Option<String>,
    cells: Vec<CellResolution>,
}

/// Resolves one `(test, target)` cell: bounded retry on panic/hang, then
/// optional crash confirmation.
fn resolve_cell<T: TestTarget>(
    tool: Tool,
    target: &T,
    original: &Context,
    variant_module: &Module,
    inputs: &Inputs,
    config: &ExecutorConfig,
) -> CellResolution {
    let max_attempts = 1 + config.max_retries;
    let mut backoff_ms = 0u64;
    let mut last_failure: Option<(FailureKind, String)> = None;

    for attempt in 1..=max_attempts {
        match attempt_classify(tool, target, original, variant_module, inputs) {
            Attempt::Signature(first) => {
                // Optional confirmation for crash signatures: flaky targets
                // may report a different outcome on a re-run.
                let mut cell = first.clone();
                let mut unstable = None;
                let mut confirm_runs = 0u32;
                if matches!(first, Some(BugSignature::Crash(_))) {
                    for run in 1..=config.crash_confirm_runs {
                        confirm_runs += 1;
                        let confirmed = attempt_classify(
                            tool,
                            target,
                            original,
                            variant_module,
                            inputs,
                        );
                        match confirmed {
                            Attempt::Signature(again) if again == cell => {}
                            Attempt::Signature(again) => {
                                unstable = Some(format!(
                                    "confirmation run {run} observed {:?}, first \
                                     attempt observed {:?}",
                                    again.as_ref().map(ToString::to_string),
                                    cell.as_ref().map(ToString::to_string),
                                ));
                                // Last observation wins — matching what a
                                // re-running human triager would keep.
                                cell = again;
                            }
                            Attempt::Hang => {
                                unstable = Some(format!(
                                    "confirmation run {run} hit the fuel budget \
                                     instead of reproducing the crash"
                                ));
                            }
                            Attempt::Panicked(message) => {
                                unstable = Some(format!(
                                    "confirmation run {run} panicked: {message}"
                                ));
                            }
                        }
                    }
                }
                return CellResolution::Resolved {
                    cell,
                    retries: attempt - 1,
                    unstable,
                    confirm_runs,
                };
            }
            Attempt::Hang => {
                last_failure =
                    Some((FailureKind::Hang, "interpreter fuel budget exhausted".into()));
            }
            Attempt::Panicked(message) => {
                last_failure = Some((FailureKind::Panic, message));
            }
        }
        if attempt < max_attempts {
            backoff_ms += config.backoff_base_ms << (attempt - 1);
        }
    }
    let (kind, message) = last_failure.unwrap_or((
        FailureKind::Panic,
        "no attempt recorded".to_owned(),
    ));
    CellResolution::Failed { kind, attempts: max_attempts, backoff_ms, message }
}

/// Runs a campaign under the resilient executor with no prior checkpoint.
///
/// Equivalent to [`resume_campaign`] with `checkpoint: None` and a no-op
/// checkpoint sink; infallible because there is no checkpoint to mismatch.
#[must_use]
pub fn run_campaign_resilient<T: TestTarget>(
    tool: Tool,
    targets: &[T],
    tests: usize,
    seed_base: u64,
    config: &ExecutorConfig,
) -> ResilientOutcome {
    match resume_campaign(tool, targets, tests, seed_base, config, None, |_| {}) {
        Ok(outcome) => outcome,
        // Unreachable: the only error source is checkpoint validation.
        Err(e) => ResilientOutcome {
            outcome: CampaignOutcome { per_test: vec![Vec::new(); targets.len()] },
            ledger: ErrorLedger {
                entries: vec![LedgerEntry {
                    test_index: 0,
                    target: None,
                    kind: FailureKind::GenerationFailed,
                    attempts: 0,
                    backoff_ms: 0,
                    message: e.to_string(),
                }],
            },
            quarantined: Vec::new(),
            retries_spent: 0,
            skipped_by_quarantine: 0,
            tests_completed: 0,
        },
    }
}

/// Runs (or resumes) a campaign under the resilient executor.
///
/// `on_checkpoint` is invoked with a progress snapshot after every batch of
/// `config.checkpoint_interval` tests; persist it (e.g. via
/// [`CampaignCheckpoint::to_json`]) to make the campaign resumable. Passing
/// the persisted snapshot back as `checkpoint` continues from where it left
/// off and yields the same final result as an uninterrupted run.
///
/// # Errors
///
/// Returns [`HarnessError::CheckpointMismatch`] when `checkpoint` does not
/// describe this `(tool, targets, tests, seed_base)` campaign.
pub fn resume_campaign<T: TestTarget>(
    tool: Tool,
    targets: &[T],
    tests: usize,
    seed_base: u64,
    config: &ExecutorConfig,
    checkpoint: Option<CampaignCheckpoint>,
    on_checkpoint: impl FnMut(&CampaignCheckpoint),
) -> Result<ResilientOutcome, HarnessError> {
    resume_campaign_observed(
        tool,
        targets,
        tests,
        seed_base,
        config,
        checkpoint,
        on_checkpoint,
        &SinkHandle::noop(),
    )
}

/// [`resume_campaign`], reporting campaign counters to `observe` under
/// [`Scope::Campaign`] (plus volatile pool-task counts under
/// [`Scope::Pool`] and per-batch wall-clock histograms).
///
/// The campaign counters (`incidents`, `retries`, `quarantined_targets`,
/// `tests_completed`, `skipped_by_quarantine`) are emitted once from the
/// final checkpoint state, so they are logical-level: identical across
/// thread counts *and* across kill/resume boundaries.
///
/// # Errors
///
/// Returns [`HarnessError::CheckpointMismatch`] when `checkpoint` does not
/// describe this `(tool, targets, tests, seed_base)` campaign.
#[allow(clippy::too_many_arguments)]
pub fn resume_campaign_observed<T: TestTarget>(
    tool: Tool,
    targets: &[T],
    tests: usize,
    seed_base: u64,
    config: &ExecutorConfig,
    checkpoint: Option<CampaignCheckpoint>,
    mut on_checkpoint: impl FnMut(&CampaignCheckpoint),
    observe: &SinkHandle,
) -> Result<ResilientOutcome, HarnessError> {
    let donors = donor_modules();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    } else {
        config.threads
    };
    let interval = config.checkpoint_interval.max(1);

    // Restore (or initialise) progress.
    let mut state = match checkpoint {
        Some(cp) => {
            cp.validate(tool, targets, tests, seed_base)?;
            cp
        }
        None => CampaignCheckpoint {
            tool: tool.name().to_owned(),
            seed_base,
            total_tests: tests,
            target_names: targets.iter().map(|t| t.name().to_owned()).collect(),
            completed_tests: 0,
            per_test: Vec::new(),
            ledger: ErrorLedger::default(),
            consecutive_failures: vec![0; targets.len()],
            quarantined_at: vec![None; targets.len()],
            retries_spent: 0,
            skipped_by_quarantine: 0,
        },
    };

    // One persistent worker pool serves every batch: under heavy triage
    // traffic the executor used to spawn (and join) a fresh set of threads
    // per checkpoint interval.
    trx_pool::with_pool_observed(threads, observe.clone(), |pool| {
    while state.completed_tests < tests {
        let batch_started = observe.enabled().then(std::time::Instant::now);
        let start = state.completed_tests;
        let batch = interval.min(tests - start);
        // The quarantine set is frozen for the whole batch, so workers are
        // independent of scheduling. It is shared into the pool jobs via
        // `Arc`: pool jobs may only capture state that outlives the pool,
        // and this vector is rebuilt per batch.
        let quarantined: std::sync::Arc<Vec<bool>> = std::sync::Arc::new(
            state.quarantined_at.iter().map(Option::is_some).collect(),
        );

        let rows: Vec<RowResult> = {
            let donors = &donors;
            pool.map(batch, move |offset| {
                let index = start + offset;
                let seed = seed_base + index as u64;
                let test = match try_generate_test(tool, seed, donors) {
                    Ok(test) => test,
                    Err(e) => {
                        return RowResult {
                            generation_error: Some(e.to_string()),
                            cells: Vec::new(),
                        };
                    }
                };
                let cells = targets
                    .iter()
                    .zip(quarantined.iter())
                    .map(|(target, &skip)| {
                        if skip {
                            CellResolution::Skipped
                        } else {
                            resolve_cell(
                                tool,
                                target,
                                &test.original,
                                &test.variant.module,
                                &test.original.inputs,
                                config,
                            )
                        }
                    })
                    .collect();
                RowResult { generation_error: None, cells }
            })
        };

        // Serial fold in test order: ledger order and breaker transitions
        // are deterministic.
        for (offset, row) in rows.into_iter().enumerate() {
            let index = start + offset;
            if let Some(message) = row.generation_error {
                state.ledger.entries.push(LedgerEntry {
                    test_index: index,
                    target: None,
                    kind: FailureKind::GenerationFailed,
                    attempts: 1,
                    backoff_ms: 0,
                    message,
                });
                state.per_test.push(vec![None; targets.len()]);
                state.completed_tests += 1;
                continue;
            }
            let mut folded_row = Vec::with_capacity(targets.len());
            for (t, cell) in row.cells.into_iter().enumerate() {
                match cell {
                    CellResolution::Skipped => {
                        state.skipped_by_quarantine += 1;
                        folded_row.push(None);
                    }
                    CellResolution::Resolved { cell, retries, unstable, confirm_runs } => {
                        state.retries_spent += u64::from(retries);
                        state.consecutive_failures[t] = 0;
                        if let Some(message) = unstable {
                            state.ledger.entries.push(LedgerEntry {
                                test_index: index,
                                target: Some(state.target_names[t].clone()),
                                kind: FailureKind::UnstableOutcome,
                                attempts: 1 + retries + confirm_runs,
                                backoff_ms: 0,
                                message,
                            });
                        }
                        folded_row.push(cell);
                    }
                    CellResolution::Failed { kind, attempts, backoff_ms, message } => {
                        state.retries_spent += u64::from(attempts - 1);
                        state.ledger.entries.push(LedgerEntry {
                            test_index: index,
                            target: Some(state.target_names[t].clone()),
                            kind,
                            attempts,
                            backoff_ms,
                            message,
                        });
                        folded_row.push(None);
                        state.consecutive_failures[t] += 1;
                        if state.consecutive_failures[t] >= config.quarantine_threshold
                            && state.quarantined_at[t].is_none()
                        {
                            state.quarantined_at[t] = Some(index);
                            state.ledger.entries.push(LedgerEntry {
                                test_index: index,
                                target: Some(state.target_names[t].clone()),
                                kind: FailureKind::Quarantined,
                                attempts: 0,
                                backoff_ms: 0,
                                message: format!(
                                    "circuit breaker opened after {} consecutive \
                                     hard failures",
                                    state.consecutive_failures[t]
                                ),
                            });
                        }
                    }
                }
            }
            state.per_test.push(folded_row);
            state.completed_tests += 1;
        }
        on_checkpoint(&state);
        if let Some(started) = batch_started {
            observe.duration(
                Scope::Campaign,
                Counter::CampaignBatchNanos,
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
    });

    // Transpose [test][target] rows into the CampaignOutcome shape.
    let mut per_test = vec![Vec::with_capacity(tests); targets.len()];
    for row in &state.per_test {
        for (t, cell) in row.iter().enumerate() {
            per_test[t].push(cell.clone());
        }
    }
    let quarantined: Vec<(String, usize)> = state
        .quarantined_at
        .iter()
        .enumerate()
        .filter_map(|(t, at)| at.map(|index| (state.target_names[t].clone(), index)))
        .collect();
    if observe.enabled() {
        // Totals come from the checkpoint state, which accumulates across
        // resumes — the counters are resume-invariant, not run-local.
        observe.count(Scope::Campaign, Counter::Incidents, state.ledger.len() as u64);
        observe.count(Scope::Campaign, Counter::Retries, state.retries_spent);
        observe.count(Scope::Campaign, Counter::QuarantinedTargets, quarantined.len() as u64);
        observe.count(Scope::Campaign, Counter::TestsCompleted, state.completed_tests as u64);
        observe.count(
            Scope::Campaign,
            Counter::SkippedByQuarantine,
            state.skipped_by_quarantine,
        );
    }
    Ok(ResilientOutcome {
        outcome: CampaignOutcome { per_test },
        ledger: state.ledger,
        quarantined,
        retries_spent: state.retries_spent,
        skipped_by_quarantine: state.skipped_by_quarantine,
        tests_completed: state.completed_tests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_targets::{catalog, FaultPlan, FaultyTarget};

    fn small_config() -> ExecutorConfig {
        ExecutorConfig { threads: 2, checkpoint_interval: 4, ..ExecutorConfig::default() }
    }

    fn chaos_targets(plan: FaultPlan) -> Vec<FaultyTarget> {
        catalog::all_targets()
            .into_iter()
            .take(2)
            .map(|t| FaultyTarget::new(t, plan.clone()))
            .collect()
    }

    #[test]
    fn clean_targets_match_plain_campaign() {
        let targets: Vec<_> = catalog::all_targets().into_iter().take(2).collect();
        let plain =
            crate::campaign::run_campaign(Tool::SpirvFuzz, &targets, 12, 0);
        let resilient = run_campaign_resilient(
            Tool::SpirvFuzz,
            &targets,
            12,
            0,
            &small_config(),
        );
        assert_eq!(resilient.outcome.per_test, plain.per_test);
        assert!(resilient.ledger.is_empty());
        assert_eq!(resilient.retries_spent, 0);
        assert!(resilient.quarantined.is_empty());
    }

    #[test]
    fn transient_faults_are_retried_and_absorbed() {
        let targets = chaos_targets(FaultPlan::chaos(7));
        let outcome = run_campaign_resilient(
            Tool::SpirvFuzz,
            &targets,
            24,
            0,
            &small_config(),
        );
        assert_eq!(outcome.tests_completed, 24);
        // Chaos probabilities guarantee some injected faults over 24 tests
        // x 2 targets; the run must absorb them rather than panic.
        assert!(
            outcome.retries_spent > 0 || !outcome.ledger.is_empty(),
            "chaos plan produced no observable faults"
        );
    }

    #[test]
    fn campaign_is_deterministic_under_faults() {
        let run = || {
            let targets = chaos_targets(FaultPlan::chaos(99));
            run_campaign_resilient(Tool::SpirvFuzz, &targets, 16, 3, &small_config())
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome.per_test, b.outcome.per_test);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.retries_spent, b.retries_spent);
        assert_eq!(a.quarantined, b.quarantined);
    }

    #[test]
    fn persistent_hangs_trip_the_circuit_breaker() {
        // ttl larger than the retry budget: every hang decision persists
        // through all retries, so hard failures accumulate.
        let plan = FaultPlan {
            seed: 5,
            panic_probability: 0.0,
            hang_probability: 1.0,
            transient_crash_probability: 0.0,
            flip_flop_probability: 0.0,
            transient_ttl: 100,
        };
        let targets = chaos_targets(plan);
        let config = ExecutorConfig {
            quarantine_threshold: 3,
            ..small_config()
        };
        let outcome =
            run_campaign_resilient(Tool::SpirvFuzz, &targets, 12, 0, &config);
        assert_eq!(outcome.quarantined.len(), 2, "all targets hang forever");
        assert!(outcome.skipped_by_quarantine > 0);
        assert!(outcome.ledger.count(FailureKind::Hang) >= 3);
        assert_eq!(outcome.ledger.count(FailureKind::Quarantined), 2);
        // Every resolved cell is None: partial results, no panic.
        assert!(outcome
            .outcome
            .per_test
            .iter()
            .all(|cells| cells.iter().all(Option::is_none)));
    }

    #[test]
    fn injected_panics_are_isolated_not_fatal() {
        let plan = FaultPlan {
            seed: 11,
            panic_probability: 1.0,
            hang_probability: 0.0,
            transient_crash_probability: 0.0,
            flip_flop_probability: 0.0,
            transient_ttl: 100,
        };
        let targets = chaos_targets(plan);
        let outcome =
            run_campaign_resilient(Tool::SpirvFuzz, &targets, 6, 0, &small_config());
        assert!(outcome.ledger.count(FailureKind::Panic) > 0);
        assert!(outcome
            .ledger
            .entries
            .iter()
            .any(|e| e.message.contains("injected panic")));
        assert_eq!(outcome.tests_completed, 6);
    }

    #[test]
    fn flip_flop_crashes_surface_as_unstable_outcomes() {
        let plan = FaultPlan {
            seed: 21,
            panic_probability: 0.0,
            hang_probability: 0.0,
            transient_crash_probability: 0.0,
            flip_flop_probability: 1.0,
            transient_ttl: 1,
        };
        let targets = chaos_targets(plan);
        let outcome =
            run_campaign_resilient(Tool::SpirvFuzz, &targets, 8, 0, &small_config());
        assert!(outcome.ledger.count(FailureKind::UnstableOutcome) > 0);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        let make_targets = || chaos_targets(FaultPlan::chaos(42));
        let config = small_config();

        let full = run_campaign_resilient(
            Tool::SpirvFuzz,
            &make_targets(),
            20,
            1,
            &config,
        );

        // Run again, capturing the checkpoint emitted closest to halfway.
        let mut midway: Option<CampaignCheckpoint> = None;
        let _ = resume_campaign(
            Tool::SpirvFuzz,
            &make_targets(),
            20,
            1,
            &config,
            None,
            |cp| {
                if cp.completed_tests <= 12 {
                    midway = Some(cp.clone());
                }
            },
        )
        .expect("no checkpoint to mismatch");
        let midway = midway.expect("at least one mid-run checkpoint");
        assert!(midway.completed_tests < 20);

        // Round-trip the checkpoint through JSON, then resume with *fresh*
        // targets (as a restarted process would have).
        let json = midway.to_json().expect("checkpoint serialises");
        let restored = CampaignCheckpoint::from_json(&json).expect("parses");
        assert_eq!(restored, midway);
        let resumed = resume_campaign(
            Tool::SpirvFuzz,
            &make_targets(),
            20,
            1,
            &config,
            Some(restored),
            |_| {},
        )
        .expect("checkpoint matches");

        assert_eq!(resumed.outcome.per_test, full.outcome.per_test);
        assert_eq!(resumed.ledger, full.ledger);
        assert_eq!(resumed.retries_spent, full.retries_spent);
        assert_eq!(resumed.skipped_by_quarantine, full.skipped_by_quarantine);
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let targets = chaos_targets(FaultPlan::none(1));
        let cp = CampaignCheckpoint {
            tool: Tool::SpirvFuzz.name().to_owned(),
            seed_base: 0,
            total_tests: 10,
            target_names: targets.iter().map(|t| t.name().to_owned()).collect(),
            completed_tests: 0,
            per_test: Vec::new(),
            ledger: ErrorLedger::default(),
            consecutive_failures: vec![0; targets.len()],
            quarantined_at: vec![None; targets.len()],
            retries_spent: 0,
            skipped_by_quarantine: 0,
        };
        // Wrong seed base.
        let err = resume_campaign(
            Tool::SpirvFuzz,
            &targets,
            10,
            999,
            &ExecutorConfig::default(),
            Some(cp.clone()),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::CheckpointMismatch { .. }));
        // Wrong tool.
        let err = resume_campaign(
            Tool::GlslFuzz,
            &targets,
            10,
            0,
            &ExecutorConfig::default(),
            Some(cp),
            |_| {},
        )
        .unwrap_err();
        assert!(matches!(err, HarnessError::CheckpointMismatch { .. }));
    }

    #[test]
    fn executor_config_round_trips_through_json() {
        let config = ExecutorConfig::default();
        let json = serde_json::to_string(&config).expect("serialises");
        let back: ExecutorConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, config);
    }
}
