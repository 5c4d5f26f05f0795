//! Pinned fingerprint values for a small fixed corpus.
//!
//! [`context_fingerprint`] and [`transformation_id`] are *persistent*
//! identities: they key the reducer's verdict memo and both prefix caches,
//! and they are meant to be comparable across processes and releases. An
//! accidental change to the stable hasher, the module binary encoding, or
//! the transformation debug format would silently invalidate all of those,
//! so this suite pins the exact u64 values for a handful of hand-built
//! contexts and transformations.
//!
//! If one of these assertions fails, either revert the encoding change or
//! — if the change is deliberate — update the pinned values *and* call the
//! break out in the changelog: persisted fingerprints (journals aside,
//! which store probe outcomes rather than fingerprints) do not survive it.

use trx_core::transformations::{AddConstant, SetFunctionControl};
use trx_core::{context_fingerprint, transformation_id, Context, Transformation};
use trx_ir::{ConstantValue, FunctionControl, Id, Inputs, ModuleBuilder};

/// Entry point returning a constant through one helper call — the same
/// shape the reducer equivalence suite uses.
fn call_context() -> Context {
    let mut b = ModuleBuilder::new();
    let c = b.constant_int(1);
    let t_int = b.type_int();
    let mut h = b.begin_function(t_int, &[]);
    h.ret_value(c);
    let helper = h.finish();
    let mut f = b.begin_entry_function("main");
    let r = f.call(helper, vec![]);
    f.store_output("out", r);
    f.ret();
    f.finish();
    Context::new(b.finish(), Inputs::default()).unwrap()
}

/// Minimal entry point: store one constant, return.
fn minimal_context() -> Context {
    let mut b = ModuleBuilder::new();
    let c = b.constant_int(7);
    let mut f = b.begin_entry_function("main");
    f.store_output("out", c);
    f.ret();
    f.finish();
    Context::new(b.finish(), Inputs::default()).unwrap()
}

fn fixed_transformations(ctx: &Context) -> Vec<Transformation> {
    let helper = ctx
        .module
        .functions
        .iter()
        .map(|f| f.id)
        .find(|&id| id != ctx.module.entry_point)
        .unwrap();
    let t_int = ctx.module.types.first().unwrap().id;
    vec![
        AddConstant { fresh_id: Id::new(200), ty: t_int, value: ConstantValue::Int(10_000) }
            .into(),
        SetFunctionControl { function: helper, control: FunctionControl::DontInline }.into(),
        SetFunctionControl { function: helper, control: FunctionControl::Inline }.into(),
    ]
}

#[test]
fn context_fingerprints_are_pinned() {
    // Golden values, captured once; see the module docs before touching.
    assert_eq!(
        context_fingerprint(&call_context()),
        14_709_161_459_283_971_024,
        "call_context fingerprint moved"
    );
    assert_eq!(
        context_fingerprint(&minimal_context()),
        13_976_555_649_894_149_940,
        "minimal_context fingerprint moved"
    );
}

#[test]
fn transformation_ids_are_pinned() {
    let ctx = call_context();
    let ids: Vec<u64> = fixed_transformations(&ctx).iter().map(transformation_id).collect();
    assert_eq!(
        ids,
        vec![
            13_664_723_657_152_762_158,
            15_583_333_534_394_255_474,
            14_651_322_644_255_144_915,
        ],
        "transformation ids moved"
    );
}

#[test]
fn fingerprints_are_reproducible_within_a_process() {
    // The pinned values above guard cross-process stability; this guards
    // the cheaper property that recomputation is deterministic, so a
    // failure there isolates "hasher is nondeterministic" from "encoding
    // changed".
    let a = context_fingerprint(&call_context());
    let b = context_fingerprint(&call_context());
    assert_eq!(a, b);
    let ctx = call_context();
    for t in fixed_transformations(&ctx) {
        assert_eq!(transformation_id(&t), transformation_id(&t));
    }
}

#[test]
fn distinct_corpus_entries_do_not_collide() {
    assert_ne!(
        context_fingerprint(&call_context()),
        context_fingerprint(&minimal_context())
    );
    let ctx = call_context();
    let ids: Vec<u64> = fixed_transformations(&ctx).iter().map(transformation_id).collect();
    assert_eq!(ids.len(), 3);
    assert!(ids[0] != ids[1] && ids[1] != ids[2] && ids[0] != ids[2]);
}
