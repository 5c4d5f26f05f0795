//! A simulated compiler under test: an optimizer pipeline with injected
//! bugs.

use trx_ir::{interp, interp::ExecConfig, Execution, Fault, Inputs, Module};

use crate::bugs::{BugEffect, BugId, InjectedBug};
use crate::passes::PassKind;

/// The result of compiling a module with a [`Target`].
#[derive(Debug, Clone)]
pub enum CompileOutcome {
    /// Compilation succeeded, possibly with silent miscompilations.
    Success {
        /// The optimized (and possibly wrong) module.
        module: Module,
        /// Ground truth: miscompilation bugs that fired during this compile.
        fired: Vec<BugId>,
    },
    /// The compiler crashed.
    Crash {
        /// The crash signature (what gfauto would scrape from the tool's
        /// stderr, §3.4).
        signature: String,
        /// Ground truth: the injected bug responsible.
        bug: BugId,
    },
}

/// The result of compiling and running a module on a target — the paper's
/// `Impl(P, I)` (Definition 2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetResult {
    /// Ran to completion with this result.
    Executed(Execution),
    /// The compiler crashed with this signature.
    CompilerCrash(String),
    /// The compiled code faulted at runtime.
    RuntimeFault(Fault),
}

/// Anything the harness can compile and run tests against: a plain
/// [`Target`], or a wrapper such as [`crate::FaultyTarget`] that injects
/// harness-level faults around one.
///
/// The campaign machinery is generic over this trait, so fault-injected and
/// clean targets run through exactly the same code paths.
pub trait TestTarget: Sync {
    /// The target's display name.
    fn name(&self) -> &str;

    /// Compiles (optimizes) `module`, triggering any injected bugs.
    fn compile(&self, module: &Module) -> CompileOutcome;

    /// Compiles and runs `module` on `inputs` — the paper's `Impl(P, I)`.
    fn execute(&self, module: &Module, inputs: &Inputs) -> TargetResult;

    /// Runs a *reference* module for cross-checking. Defaults to
    /// [`TestTarget::execute`]; wrappers that inject harness-level faults
    /// keep this path clean, mirroring harnesses that compile each
    /// reference once and cache the result. Reference runs shared between
    /// concurrently-executing tests must stay deterministic, so injected
    /// per-test fault state cannot apply here.
    fn execute_reference(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        self.execute(module, inputs)
    }
}

impl TestTarget for Target {
    fn name(&self) -> &str {
        Target::name(self)
    }

    fn compile(&self, module: &Module) -> CompileOutcome {
        Target::compile(self, module)
    }

    fn execute(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        Target::execute(self, module, inputs)
    }
}

impl<T: TestTarget + Sync> TestTarget for &T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn compile(&self, module: &Module) -> CompileOutcome {
        (**self).compile(module)
    }

    fn execute(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        (**self).execute(module, inputs)
    }

    fn execute_reference(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        (**self).execute_reference(module, inputs)
    }
}

/// A simulated compiler: name, descriptive metadata (Table 2), an optimizer
/// pipeline and a set of injected bugs.
#[derive(Debug, Clone)]
pub struct Target {
    name: String,
    version: String,
    gpu_type: String,
    pipeline: Vec<PassKind>,
    bugs: Vec<InjectedBug>,
    exec_config: ExecConfig,
}

impl Target {
    /// Creates a target.
    #[must_use]
    pub fn new(
        name: &str,
        version: &str,
        gpu_type: &str,
        pipeline: Vec<PassKind>,
        bugs: Vec<InjectedBug>,
    ) -> Self {
        Target {
            name: name.to_owned(),
            version: version.to_owned(),
            gpu_type: gpu_type.to_owned(),
            pipeline,
            bugs,
            exec_config: ExecConfig::default(),
        }
    }

    /// Returns the target with the interpreter budget replaced — the knob a
    /// resilient executor (or a fault injector) uses to bound how long a
    /// compiled test may run.
    #[must_use]
    pub fn with_exec_config(mut self, exec_config: ExecConfig) -> Self {
        self.exec_config = exec_config;
        self
    }

    /// The interpreter budget compiled code runs under.
    #[must_use]
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_config
    }

    /// The target's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulated driver/tool version (Table 2).
    #[must_use]
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The simulated GPU type (Table 2).
    #[must_use]
    pub fn gpu_type(&self) -> &str {
        &self.gpu_type
    }

    /// The injected bugs (ground truth for experiments).
    #[must_use]
    pub fn bugs(&self) -> &[InjectedBug] {
        &self.bugs
    }

    /// Number of injected crash bugs.
    #[must_use]
    pub fn crash_bug_count(&self) -> usize {
        self.bugs
            .iter()
            .filter(|b| matches!(b.effect, BugEffect::Crash { .. }))
            .count()
    }

    /// The optimizer pass pipeline, in execution order.
    #[must_use]
    pub fn pipeline(&self) -> &[PassKind] {
        &self.pipeline
    }

    /// Compiles (optimizes) `module`, triggering any injected bugs whose
    /// patterns appear.
    #[must_use]
    pub fn compile(&self, module: &Module) -> CompileOutcome {
        self.compile_with_prefix(module, self.pipeline.len())
    }

    /// Compiles `module` through only the first `prefix` pipeline passes
    /// (clamped to the pipeline length). Front-end bugs always run; a
    /// pass's stage bugs run at every occurrence of that pass inside the
    /// prefix, evaluated on the pass's input module — so `prefix ==
    /// pipeline().len()` is exactly [`Target::compile`]. This is the
    /// execution surface pass-prefix bisection dedup probes against.
    #[must_use]
    pub fn compile_with_prefix(&self, module: &Module, prefix: usize) -> CompileOutcome {
        let mut current = module.clone();
        let mut fired: Vec<BugId> = Vec::new();

        // Front-end bugs fire on the input module.
        if let Some(outcome) = self.run_stage_bugs(None, &mut current, &mut fired) {
            return outcome;
        }
        let prefix = prefix.min(self.pipeline.len());
        for pass in &self.pipeline[..prefix] {
            // A pass's bugs fire while it *processes* the offending pattern,
            // so triggers are evaluated on the pass's input — at every
            // occurrence of the pass, since a duplicated pass re-processes
            // whatever earlier passes rewrote (crashes still return at the
            // first firing, and miscompilations are armed at most once by
            // the `fired` guard).
            if let Some(outcome) =
                self.run_stage_bugs(Some(*pass), &mut current, &mut fired)
            {
                return outcome;
            }
            pass.run(&mut current);
        }
        CompileOutcome::Success { module: current, fired }
    }

    fn run_stage_bugs(
        &self,
        stage: Option<PassKind>,
        module: &mut Module,
        fired: &mut Vec<BugId>,
    ) -> Option<CompileOutcome> {
        for bug in self.bugs.iter().filter(|b| b.stage == stage) {
            if !bug.trigger.holds(module) {
                continue;
            }
            match &bug.effect {
                BugEffect::Crash { signature } => {
                    return Some(CompileOutcome::Crash {
                        signature: signature.clone(),
                        bug: bug.id.clone(),
                    });
                }
                BugEffect::Miscompile(mutation) => {
                    if !fired.contains(&bug.id) && mutation.apply(module) {
                        fired.push(bug.id.clone());
                    }
                }
            }
        }
        None
    }

    /// Compiles and runs `module` on `inputs` — the paper's `Impl(P, I)`.
    #[must_use]
    pub fn execute(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        match self.compile(module) {
            CompileOutcome::Crash { signature, .. } => TargetResult::CompilerCrash(signature),
            CompileOutcome::Success { module, .. } => {
                match interp::execute_with_config(&module, inputs, self.exec_config) {
                    Ok(execution) => TargetResult::Executed(execution),
                    Err(fault) => TargetResult::RuntimeFault(fault),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bugs::Miscompilation;
    use crate::triggers::Trigger;
    use trx_ir::{ModuleBuilder, Value};

    fn module_with_const_conditional() -> Module {
        let mut b = ModuleBuilder::new();
        let c_true = b.constant_bool(true);
        let c1 = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        let then_l = f.reserve_label();
        let merge_l = f.reserve_label();
        f.selection_merge(merge_l);
        f.branch_cond(c_true, then_l, merge_l);
        f.begin_block_with_label(then_l);
        f.branch(merge_l);
        f.begin_block_with_label(merge_l);
        f.store_output("out", c1);
        f.ret();
        f.finish();
        b.finish()
    }

    fn crash_target() -> Target {
        Target::new(
            "toy",
            "1.0",
            "None",
            vec![PassKind::ConstantFolding],
            vec![InjectedBug::crash(
                "toy-bug",
                None,
                Trigger::ConstantConditionalPresent,
                "assert failed: fold_branch",
            )],
        )
    }

    #[test]
    fn crash_bug_fires_on_trigger() {
        let m = module_with_const_conditional();
        match crash_target().compile(&m) {
            CompileOutcome::Crash { signature, bug } => {
                assert_eq!(signature, "assert failed: fold_branch");
                assert_eq!(bug.0, "toy-bug");
            }
            CompileOutcome::Success { .. } => panic!("expected a crash"),
        }
    }

    #[test]
    fn clean_module_compiles() {
        let mut b = ModuleBuilder::new();
        let c = b.constant_int(7);
        let mut f = b.begin_entry_function("main");
        f.store_output("out", c);
        f.ret();
        f.finish();
        let m = b.finish();
        match crash_target().compile(&m) {
            CompileOutcome::Success { fired, .. } => assert!(fired.is_empty()),
            CompileOutcome::Crash { .. } => panic!("unexpected crash"),
        }
        let result = crash_target().execute(&m, &Inputs::default());
        assert_eq!(
            result,
            TargetResult::Executed(
                interp::execute(&m, &Inputs::default()).unwrap()
            )
        );
    }

    /// Like [`module_with_const_conditional`], but the branch condition is
    /// an `OpCopyObject` of the constant — so `ConstantConditionalPresent`
    /// only holds after copy propagation rewrites the condition.
    fn module_with_copied_conditional() -> Module {
        let mut b = ModuleBuilder::new();
        let c_true = b.constant_bool(true);
        let c1 = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        let cond = f.copy_object(c_true);
        let then_l = f.reserve_label();
        let merge_l = f.reserve_label();
        f.selection_merge(merge_l);
        f.branch_cond(cond, then_l, merge_l);
        f.begin_block_with_label(then_l);
        f.branch(merge_l);
        f.begin_block_with_label(merge_l);
        f.store_output("out", c1);
        f.ret();
        f.finish();
        b.finish()
    }

    /// A pipeline running constant folding twice with copy propagation in
    /// between, and a crash bug staged at constant folding whose trigger
    /// only holds once copy propagation has rewritten the branch condition
    /// to a bare constant.
    fn duplicated_pass_target() -> Target {
        Target::new(
            "toy-dup",
            "1.0",
            "None",
            vec![
                PassKind::ConstantFolding,
                PassKind::CopyPropagation,
                PassKind::ConstantFolding,
            ],
            vec![InjectedBug::crash(
                "dup-fold-bug",
                Some(PassKind::ConstantFolding),
                Trigger::ConstantConditionalPresent,
                "assert failed: fold_branch (second visit)",
            )],
        )
    }

    #[test]
    fn stage_bugs_arm_at_every_occurrence_of_a_duplicated_pass() {
        // Regression: arming used to be gated on the *first* occurrence of
        // a pass (`pipeline.iter().position(..) == Some(index)`), so a bug
        // whose trigger only holds at the second occurrence never fired.
        let m = module_with_copied_conditional();
        let target = duplicated_pass_target();
        match target.compile(&m) {
            CompileOutcome::Crash { signature, bug } => {
                assert_eq!(signature, "assert failed: fold_branch (second visit)");
                assert_eq!(bug.0, "dup-fold-bug");
            }
            CompileOutcome::Success { .. } => {
                panic!("the duplicated pass's second occurrence must arm the bug")
            }
        }
        // A prefix stopping before the second occurrence does not crash:
        // the first constant-folding visit sees a copy, not a constant.
        for prefix in 0..=2 {
            assert!(
                matches!(
                    target.compile_with_prefix(&m, prefix),
                    CompileOutcome::Success { .. }
                ),
                "prefix {prefix} must not reach the second occurrence"
            );
        }
        assert!(matches!(
            target.compile_with_prefix(&m, 3),
            CompileOutcome::Crash { .. }
        ));
    }

    #[test]
    fn compile_with_prefix_full_length_matches_compile_and_clamps() {
        let m = module_with_const_conditional();
        let target = crash_target();
        let full = target.pipeline().len();
        for (a, b) in [
            (target.compile(&m), target.compile_with_prefix(&m, full)),
            // Over-long prefixes clamp to the pipeline length.
            (target.compile_with_prefix(&m, full), target.compile_with_prefix(&m, full + 7)),
        ] {
            match (a, b) {
                (
                    CompileOutcome::Crash { signature: sa, bug: ba },
                    CompileOutcome::Crash { signature: sb, bug: bb },
                ) => {
                    assert_eq!(sa, sb);
                    assert_eq!(ba, bb);
                }
                (
                    CompileOutcome::Success { module: ma, fired: fa },
                    CompileOutcome::Success { module: mb, fired: fb },
                ) => {
                    assert_eq!(ma, mb);
                    assert_eq!(fa, fb);
                }
                _ => panic!("compile and full-prefix compile diverged"),
            }
        }
    }

    #[test]
    fn prefix_zero_runs_only_front_end_bugs() {
        let m = module_with_const_conditional();
        // `crash_target` stages its bug at the front end (stage `None`), so
        // even a zero-length prefix trips it …
        assert!(matches!(
            crash_target().compile_with_prefix(&m, 0),
            CompileOutcome::Crash { .. }
        ));
        // … while a pass-staged bug needs its pass inside the prefix.
        let staged = Target::new(
            "toy-staged",
            "1.0",
            "None",
            vec![PassKind::ConstantFolding],
            vec![InjectedBug::crash(
                "staged-bug",
                Some(PassKind::ConstantFolding),
                Trigger::ConstantConditionalPresent,
                "assert failed: fold_branch",
            )],
        );
        assert!(matches!(
            staged.compile_with_prefix(&m, 0),
            CompileOutcome::Success { .. }
        ));
        assert!(matches!(
            staged.compile_with_prefix(&m, 1),
            CompileOutcome::Crash { .. }
        ));
    }

    #[test]
    fn miscompilation_fires_and_changes_output() {
        let mut b = ModuleBuilder::new();
        let c = b.constant_int(9);
        let mut f = b.begin_entry_function("main");
        f.store_output("out", c);
        f.ret();
        f.finish();
        let m = b.finish();

        // A target whose bug drops the last store whenever any store exists.
        let target = Target::new(
            "toy-miscompile",
            "1.0",
            "None",
            vec![],
            vec![InjectedBug::miscompile(
                "toy-drop-store",
                None,
                Trigger::InstructionCountAtLeast(1),
                Miscompilation::DropLastStore,
            )],
        );
        match target.execute(&m, &Inputs::default()) {
            TargetResult::Executed(e) => assert_eq!(e.outputs["out"], Value::Int(0)),
            other => panic!("expected execution, got {other:?}"),
        }
        // Ground truth is reported.
        match target.compile(&m) {
            CompileOutcome::Success { fired, .. } => {
                assert_eq!(fired.len(), 1);
            }
            CompileOutcome::Crash { .. } => panic!("unexpected crash"),
        }
    }
}
