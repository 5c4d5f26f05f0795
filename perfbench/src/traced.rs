//! A [`TestTarget`] wrapper that spans every call into a catalog target.
//!
//! Both traced and untraced runs use it, so they drive the same code; with
//! tracing off each call pays one atomic load.

use trx_ir::{Inputs, Module};
use trx_targets::{catalog, CompileOutcome, Target, TargetResult, TestTarget};

use crate::trace::{self, Layer};

pub struct TracedTarget(pub Target);

impl TestTarget for TracedTarget {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn compile(&self, module: &Module) -> CompileOutcome {
        trace::span(Layer::TargetExecute, || self.0.compile(module))
    }

    fn execute(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        trace::span(Layer::TargetExecute, || self.0.execute(module, inputs))
    }

    fn execute_reference(&self, module: &Module, inputs: &Inputs) -> TargetResult {
        trace::span(Layer::TargetReference, || {
            self.0.execute_reference(module, inputs)
        })
    }
}

/// All nine catalog targets, wrapped.
pub fn catalog_targets() -> Vec<TracedTarget> {
    catalog::all_targets()
        .into_iter()
        .map(TracedTarget)
        .collect()
}
