//! # trx-core
//!
//! The heart of transformation-based compiler testing (the paper's §2):
//! transformation [`Context`]s, the [`FactStore`], and a catalogue of 27
//! semantics-preserving [`Transformation`]s with explicit preconditions and
//! effects.
//!
//! Each transformation satisfies Definition 2.4: if its precondition holds
//! of a context `(P, I, F)`, its effect yields a context `(P', I', F')` with
//! `Semantics(P, I) = Semantics(P', I')`. Sequences are applied by
//! [`apply_sequence`], which skips transformations whose preconditions fail
//! (Definition 2.5) — the property that makes delta-debugging over
//! transformation sequences sound.
//!
//! # Example
//!
//! ```
//! use trx_ir::{ModuleBuilder, Inputs, interp};
//! use trx_core::{Context, Transformation, apply_sequence};
//! use trx_core::transformations::SetFunctionControl;
//! use trx_ir::FunctionControl;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new();
//! let c = b.constant_int(42);
//! let mut f = b.begin_entry_function("main");
//! f.store_output("out", c);
//! f.ret();
//! f.finish();
//! let module = b.finish();
//!
//! let original = interp::execute(&module, &Inputs::default())?;
//! let mut ctx = Context::new(module, Inputs::default())?;
//! let entry = ctx.module.entry_point;
//! let ts: Vec<Transformation> = vec![
//!     SetFunctionControl { function: entry, control: FunctionControl::DontInline }.into(),
//! ];
//! let applied = apply_sequence(&mut ctx, &ts);
//! assert_eq!(applied, vec![true]);
//!
//! // Theorem 2.6: the variant computes the same result.
//! let variant = interp::execute(&ctx.module, &ctx.inputs)?;
//! assert_eq!(original, variant);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod context;
mod descriptor;
mod facts;
mod fingerprint;
mod prefix;
mod prefix_shared;
mod size;
mod transformation;
pub mod transformations;

pub use context::Context;
pub use descriptor::{Anchor, InstructionDescriptor, ResolvedPoint, UseDescriptor};
pub use facts::{DataDescriptor, FactStore};
pub use fingerprint::{context_fingerprint, transformation_id};
pub use prefix::{Materialized, PrefixCache, PrefixCacheStats};
pub use prefix_shared::{InsertOutcome, SharedCacheSession, SharedCacheStats, SharedPrefixCache};
pub use size::context_size_estimate;
pub use transformation::{apply, apply_sequence, Transformation, TransformationKind};
