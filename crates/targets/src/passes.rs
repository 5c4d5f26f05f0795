//! Correct optimizer passes over `trx-ir` modules.
//!
//! These form the pipelines of the simulated compilers; injected bugs are
//! layered on top of them (see [`bugs`](crate::bugs)), so a clean pipeline is
//! a correct compiler: `interp(optimize(P), I) == interp(P, I)` for every
//! valid `P` and input `I`.

use std::collections::{HashMap, HashSet};

use trx_ir::cfg::Dominators;
use trx_ir::{
    BinOp, ConstantValue, Function, FunctionControl, Id, Instruction, Merge, Module, Op,
    Terminator, UnOp,
};

/// The optimizer passes available to target pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum PassKind {
    CopyPropagation,
    ConstantFolding,
    DeadCodeElimination,
    CfgSimplification,
    LocalCse,
    Inlining,
    PhiSimplification,
    StoreLoadForwarding,
}

impl PassKind {
    /// All pass kinds.
    pub const ALL: [PassKind; 8] = [
        PassKind::CopyPropagation,
        PassKind::ConstantFolding,
        PassKind::DeadCodeElimination,
        PassKind::CfgSimplification,
        PassKind::LocalCse,
        PassKind::Inlining,
        PassKind::PhiSimplification,
        PassKind::StoreLoadForwarding,
    ];

    /// A human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PassKind::CopyPropagation => "copy-propagation",
            PassKind::ConstantFolding => "constant-folding",
            PassKind::DeadCodeElimination => "dce",
            PassKind::CfgSimplification => "cfg-simplification",
            PassKind::LocalCse => "local-cse",
            PassKind::Inlining => "inlining",
            PassKind::PhiSimplification => "phi-simplification",
            PassKind::StoreLoadForwarding => "store-load-forwarding",
        }
    }

    /// Runs the pass over `module`.
    pub fn run(self, module: &mut Module) {
        match self {
            PassKind::CopyPropagation => copy_propagation(module),
            PassKind::ConstantFolding => constant_folding(module),
            PassKind::DeadCodeElimination => dead_code_elimination(module),
            PassKind::CfgSimplification => cfg_simplification(module),
            PassKind::LocalCse => local_cse(module),
            PassKind::Inlining => inlining(module),
            PassKind::PhiSimplification => phi_simplification(module),
            PassKind::StoreLoadForwarding => store_load_forwarding(module),
        }
    }
}

fn replace_uses(function: &mut Function, replacements: &HashMap<Id, Id>) {
    if replacements.is_empty() {
        return;
    }
    let subst = |id: &mut Id| {
        // Chase chains (a -> b -> c) to a fixpoint.
        let mut guard = 0;
        while let Some(next) = replacements.get(id) {
            *id = *next;
            guard += 1;
            if guard > replacements.len() {
                break;
            }
        }
    };
    for block in &mut function.blocks {
        for inst in &mut block.instructions {
            inst.op.for_each_id_operand_mut(subst);
        }
        block.terminator.for_each_id_operand_mut(subst);
    }
}

/// Replaces uses of `OpCopyObject` results with their sources and removes
/// the copies.
pub fn copy_propagation(module: &mut Module) {
    for function in &mut module.functions {
        let mut replacements: HashMap<Id, Id> = HashMap::new();
        for block in &function.blocks {
            for inst in &block.instructions {
                if let (Some(result), Op::CopyObject { src }) = (inst.result, &inst.op) {
                    replacements.insert(result, *src);
                }
            }
        }
        replace_uses(function, &replacements);
        for block in &mut function.blocks {
            block
                .instructions
                .retain(|i| !matches!(i.op, Op::CopyObject { .. }));
        }
    }
}

fn constant_of(module: &Module, id: Id) -> Option<ConstantValue> {
    module.constant(id).map(|c| c.value.clone())
}

fn fold_binary(op: BinOp, l: &ConstantValue, r: &ConstantValue) -> Option<ConstantValue> {
    use BinOp::*;
    let int = |v: &ConstantValue| v.as_int();
    let boolean = |v: &ConstantValue| v.as_bool();
    Some(match op {
        IAdd => ConstantValue::Int(int(l)?.wrapping_add(int(r)?)),
        ISub => ConstantValue::Int(int(l)?.wrapping_sub(int(r)?)),
        IMul => ConstantValue::Int(int(l)?.wrapping_mul(int(r)?)),
        SDiv => {
            let (a, b) = (int(l)?, int(r)?);
            ConstantValue::Int(if b == 0 { 0 } else { a.wrapping_div(b) })
        }
        SRem => {
            let (a, b) = (int(l)?, int(r)?);
            ConstantValue::Int(if b == 0 { 0 } else { a.wrapping_rem(b) })
        }
        BitAnd => ConstantValue::Int(int(l)? & int(r)?),
        BitOr => ConstantValue::Int(int(l)? | int(r)?),
        BitXor => ConstantValue::Int(int(l)? ^ int(r)?),
        ShiftLeft => ConstantValue::Int(int(l)?.wrapping_shl(int(r)? as u32 & 31)),
        ShiftRightArith => ConstantValue::Int(int(l)?.wrapping_shr(int(r)? as u32 & 31)),
        LogicalAnd => ConstantValue::Bool(boolean(l)? && boolean(r)?),
        LogicalOr => ConstantValue::Bool(boolean(l)? || boolean(r)?),
        IEqual => ConstantValue::Bool(int(l)? == int(r)?),
        INotEqual => ConstantValue::Bool(int(l)? != int(r)?),
        SLessThan => ConstantValue::Bool(int(l)? < int(r)?),
        SLessThanEqual => ConstantValue::Bool(int(l)? <= int(r)?),
        SGreaterThan => ConstantValue::Bool(int(l)? > int(r)?),
        SGreaterThanEqual => ConstantValue::Bool(int(l)? >= int(r)?),
        // Floats are deliberately not folded: keeps the pass trivially
        // bit-exact with the interpreter.
        _ => return None,
    })
}

fn fold_unary(op: UnOp, v: &ConstantValue) -> Option<ConstantValue> {
    Some(match op {
        UnOp::SNegate => ConstantValue::Int(v.as_int()?.wrapping_neg()),
        UnOp::BitNot => ConstantValue::Int(!v.as_int()?),
        UnOp::LogicalNot => ConstantValue::Bool(!v.as_bool()?),
        _ => return None,
    })
}

/// Folds constant expressions, rewiring uses to (possibly new) constants,
/// and folds conditional branches on constant conditions.
pub fn constant_folding(module: &mut Module) {
    // Collect folds first (needs immutable access to constants).
    let mut new_constants: Vec<(Id, Id, ConstantValue)> = Vec::new();
    let mut replacements_per_fn: Vec<HashMap<Id, Id>> = Vec::new();
    let mut alloc = module.allocator();
    for function in &module.functions {
        let mut replacements: HashMap<Id, Id> = HashMap::new();
        for block in &function.blocks {
            for inst in &block.instructions {
                let (Some(result), Some(ty)) = (inst.result, inst.ty) else {
                    continue;
                };
                let folded = match &inst.op {
                    Op::Binary { op, lhs, rhs } => {
                        match (constant_of(module, *lhs), constant_of(module, *rhs)) {
                            (Some(l), Some(r)) => fold_binary(*op, &l, &r),
                            _ => None,
                        }
                    }
                    Op::Unary { op, src } => {
                        constant_of(module, *src).and_then(|v| fold_unary(*op, &v))
                    }
                    Op::Select { cond, if_true, if_false } => {
                        let chosen = match constant_of(module, *cond)
                            .and_then(|c| c.as_bool())
                        {
                            Some(true) => Some(*if_true),
                            Some(false) => Some(*if_false),
                            None => None,
                        };
                        if let Some(id) = chosen {
                            replacements.insert(result, id);
                        }
                        None
                    }
                    _ => None,
                };
                if let Some(value) = folded {
                    // Find or mint a constant id for the folded value.
                    let existing = module.lookup_constant(ty, &value).or_else(|| {
                        new_constants
                            .iter()
                            .find(|(_, t, v)| *t == ty && *v == value)
                            .map(|(id, _, _)| *id)
                    });
                    let id = existing.unwrap_or_else(|| {
                        let id = alloc.fresh();
                        new_constants.push((id, ty, value));
                        id
                    });
                    replacements.insert(result, id);
                }
            }
        }
        replacements_per_fn.push(replacements);
    }
    for (id, ty, value) in new_constants {
        module.constants.push(trx_ir::ConstantDecl { id, ty, value });
        module.ensure_bound_covers(id);
    }
    for (function, replacements) in module.functions.iter_mut().zip(&replacements_per_fn) {
        // Drop the folded instructions, then rewire.
        for block in &mut function.blocks {
            block.instructions.retain(|i| {
                i.result.is_none_or(|r| !replacements.contains_key(&r))
            });
        }
        replace_uses(function, replacements);
    }

    // Fold conditional branches on constants.
    for fi in 0..module.functions.len() {
        let labels: Vec<Id> = module.functions[fi].blocks.iter().map(|b| b.label).collect();
        for label in labels {
            let (cond_value, true_t, false_t) = {
                let block = module.functions[fi].block(label).expect("label listed");
                match &block.terminator {
                    Terminator::BranchConditional { cond, true_target, false_target } => {
                        match constant_of(module, *cond).and_then(|c| c.as_bool()) {
                            Some(v) => (v, *true_target, *false_target),
                            None => continue,
                        }
                    }
                    _ => continue,
                }
            };
            let taken = if cond_value { true_t } else { false_t };
            let not_taken = if cond_value { false_t } else { true_t };
            let block = module.functions[fi].block_mut(label).expect("label listed");
            block.terminator = Terminator::Branch { target: taken };
            if matches!(block.merge, Some(Merge::Selection { .. })) {
                block.merge = None;
            }
            // The edge to the not-taken side is gone; prune its phis
            // (only when the two targets differed).
            if taken != not_taken {
                let not_taken_block =
                    module.functions[fi].block_mut(not_taken).expect("target exists");
                for inst in &mut not_taken_block.instructions {
                    if let Op::Phi { incoming } = &mut inst.op {
                        incoming.retain(|(_, p)| *p != label);
                    }
                }
            }
        }
    }
}

/// Removes pure instructions whose results are never used.
pub fn dead_code_elimination(module: &mut Module) {
    for function in &mut module.functions {
        loop {
            let mut used: HashSet<Id> = HashSet::new();
            for block in &function.blocks {
                for inst in &block.instructions {
                    inst.op.for_each_id_operand(|id| {
                        used.insert(id);
                    });
                }
                for id in block.terminator.id_operands() {
                    used.insert(id);
                }
            }
            let mut removed = false;
            for block in &mut function.blocks {
                let before = block.instructions.len();
                block.instructions.retain(|inst| {
                    let removable = inst
                        .result
                        .is_some_and(|r| !used.contains(&r))
                        && !inst.op.has_side_effects()
                        && !matches!(inst.op, Op::Phi { .. });
                    !removable
                });
                removed |= block.instructions.len() != before;
            }
            if !removed {
                break;
            }
        }
    }
}

/// Removes CFG-unreachable blocks and merges straight-line block chains.
pub fn cfg_simplification(module: &mut Module) {
    for function in &mut module.functions {
        // Drop unreachable blocks.
        let dom = Dominators::compute(function);
        let reachable: HashSet<Id> = function
            .blocks
            .iter()
            .map(|b| b.label)
            .filter(|&l| dom.is_reachable(l))
            .collect();
        let removed: Vec<Id> = function
            .blocks
            .iter()
            .map(|b| b.label)
            .filter(|l| !reachable.contains(l))
            .collect();
        function.blocks.retain(|b| reachable.contains(&b.label));
        for block in &mut function.blocks {
            for inst in &mut block.instructions {
                if let Op::Phi { incoming } = &mut inst.op {
                    incoming.retain(|(_, p)| !removed.contains(p));
                }
            }
        }

        // Merge `a -> b` chains where b has a single predecessor and no
        // phis, and a has no merge annotation guarding its branch.
        loop {
            let mut merged = false;
            let labels: Vec<Id> = function.blocks.iter().map(|b| b.label).collect();
            for a_label in labels {
                let Some(a) = function.block(a_label) else { continue };
                let Terminator::Branch { target: b_label } = a.terminator else {
                    continue;
                };
                if a.merge.is_some() || b_label == a_label {
                    continue;
                }
                let preds = function.predecessors(b_label);
                let Some(b) = function.block(b_label) else { continue };
                if preds.len() != 1 || b.phi_count() > 0 {
                    continue;
                }
                if b_label == function.entry_label() {
                    continue;
                }
                // No other block may use b as a merge/continue target.
                let referenced = function.blocks.iter().any(|blk| {
                    blk.merge
                        .is_some_and(|m| m.referenced_labels().any(|l| l == b_label))
                });
                if referenced {
                    continue;
                }
                // Splice b into a.
                let b_index = function.block_index(b_label).expect("exists");
                let b_block = function.blocks.remove(b_index);
                let a_index = function.block_index(a_label).expect("exists");
                let a_block = &mut function.blocks[a_index];
                a_block.instructions.extend(b_block.instructions);
                a_block.merge = b_block.merge;
                a_block.terminator = b_block.terminator;
                // Phi predecessors referencing b now come from a.
                for block in &mut function.blocks {
                    for inst in &mut block.instructions {
                        if let Op::Phi { incoming } = &mut inst.op {
                            for (_, p) in incoming {
                                if *p == b_label {
                                    *p = a_label;
                                }
                            }
                        }
                    }
                }
                merged = true;
                break;
            }
            if !merged {
                break;
            }
        }
    }
}

/// Local common-subexpression elimination within each block.
pub fn local_cse(module: &mut Module) {
    for function in &mut module.functions {
        let mut replacements: HashMap<Id, Id> = HashMap::new();
        for block in &mut function.blocks {
            let mut seen: HashMap<String, Id> = HashMap::new();
            block.instructions.retain(|inst| {
                let Some(result) = inst.result else { return true };
                let pure = matches!(
                    inst.op,
                    Op::Binary { .. }
                        | Op::Unary { .. }
                        | Op::Select { .. }
                        | Op::CompositeConstruct { .. }
                        | Op::CompositeExtract { .. }
                        | Op::CompositeInsert { .. }
                );
                if !pure {
                    return true;
                }
                // A cheap structural key; operands have already been
                // canonicalised by earlier retains in this block.
                let key = format!("{:?}|{:?}", inst.ty, inst.op);
                match seen.get(&key) {
                    Some(&prior) => {
                        replacements.insert(result, prior);
                        false
                    }
                    None => {
                        seen.insert(key, result);
                        true
                    }
                }
            });
        }
        replace_uses(function, &replacements);
    }
}

/// Inlines calls to small functions, honouring `FunctionControl` hints:
/// `DontInline` is never inlined, `Inline` always is, and unannotated
/// functions are inlined when their body is small.
pub fn inlining(module: &mut Module) {
    const SMALL_BODY: usize = 12;
    // Repeatedly inline the first eligible call; bounded by the absence of
    // recursion plus a safety counter.
    for _ in 0..64 {
        let Some((fi, bi, ii)) = find_inlinable_call(module, SMALL_BODY) else {
            return;
        };
        inline_call_at(module, fi, bi, ii);
    }
}

fn find_inlinable_call(module: &Module, small: usize) -> Option<(usize, usize, usize)> {
    for (fi, function) in module.functions.iter().enumerate() {
        for (bi, block) in function.blocks.iter().enumerate() {
            for (ii, inst) in block.instructions.iter().enumerate() {
                let Op::Call { callee, .. } = &inst.op else { continue };
                let Some(callee_fn) = module.function(*callee) else { continue };
                let eligible = match callee_fn.control {
                    FunctionControl::DontInline => false,
                    FunctionControl::Inline => true,
                    FunctionControl::None => callee_fn.instruction_count() <= small,
                };
                // Only single-block callees without kills are inlined by
                // this simple inliner.
                if eligible
                    && callee_fn.blocks.len() == 1
                    && matches!(
                        callee_fn.blocks[0].terminator,
                        Terminator::Return | Terminator::ReturnValue { .. }
                    )
                {
                    return Some((fi, bi, ii));
                }
            }
        }
    }
    None
}

fn inline_call_at(module: &mut Module, fi: usize, bi: usize, ii: usize) {
    let inst = module.functions[fi].blocks[bi].instructions[ii].clone();
    let Op::Call { callee, args } = inst.op else {
        unreachable!("caller located a call");
    };
    let callee_fn = module.function(callee).expect("callee exists").clone();
    let body = callee_fn.blocks[0].clone();

    let mut alloc = module.allocator();
    let mut map: HashMap<Id, Id> = callee_fn
        .params
        .iter()
        .map(|p| p.id)
        .zip(args.iter().copied())
        .collect();
    // Copy body instructions with fresh result ids, splicing them in place
    // of the call; variables keep working because single-block callees hold
    // them in that same block (still the entry block after inlining only if
    // the caller block is the entry — so rehome them).
    let mut new_instructions: Vec<Instruction> = Vec::new();
    let mut hoisted: Vec<Instruction> = Vec::new();
    for body_inst in &body.instructions {
        let mut copy = body_inst.clone();
        if let Some(r) = copy.result {
            let fresh = alloc.fresh();
            map.insert(r, fresh);
            copy.result = Some(fresh);
        }
        copy.op.for_each_id_operand_mut(|id| {
            if let Some(new) = map.get(id) {
                *id = *new;
            }
        });
        if copy.is_variable() {
            hoisted.push(copy);
        } else {
            new_instructions.push(copy);
        }
    }
    let returned = match &body.terminator {
        Terminator::ReturnValue { value } => Some(map.get(value).copied().unwrap_or(*value)),
        _ => None,
    };
    // Wire the call result to the returned value via a copy (cleaned by
    // copy-propagation on a later run).
    if let (Some(result), Some(value), Some(ty)) = (inst.result, returned, inst.ty) {
        new_instructions.push(Instruction::with_result(
            result,
            ty,
            Op::CopyObject { src: value },
        ));
    }
    let caller = &mut module.functions[fi];
    caller.blocks[bi]
        .instructions
        .splice(ii..=ii, new_instructions);
    caller.blocks[0].instructions.splice(0..0, hoisted);
    module.id_bound = alloc.bound();
}

/// Replaces phis whose incomings all carry the same value with that value.
pub fn phi_simplification(module: &mut Module) {
    for function in &mut module.functions {
        let mut replacements: HashMap<Id, Id> = HashMap::new();
        for block in &mut function.blocks {
            block.instructions.retain(|inst| {
                let (Some(result), Op::Phi { incoming }) = (inst.result, &inst.op) else {
                    return true;
                };
                let mut values: Vec<Id> = incoming.iter().map(|(v, _)| *v).collect();
                values.dedup();
                if values.len() == 1 && !incoming.is_empty() {
                    replacements.insert(result, values[0]);
                    false
                } else {
                    true
                }
            });
        }
        replace_uses(function, &replacements);
    }
}

/// Forwards stored values to subsequent loads of the same pointer within a
/// block (conservatively invalidated by any other store or call).
pub fn store_load_forwarding(module: &mut Module) {
    for function in &mut module.functions {
        let mut replacements: HashMap<Id, Id> = HashMap::new();
        for block in &mut function.blocks {
            let mut known: HashMap<Id, Id> = HashMap::new();
            for inst in &block.instructions {
                match &inst.op {
                    Op::Store { pointer, value } => {
                        // A store to one pointer invalidates knowledge about
                        // others only if they may alias; our pointers are
                        // distinct roots or access chains, so conservatively
                        // clear everything except this root.
                        known.clear();
                        known.insert(*pointer, *value);
                    }
                    Op::Call { .. } => known.clear(),
                    Op::Load { pointer } => {
                        if let (Some(result), Some(&value)) =
                            (inst.result, known.get(pointer))
                        {
                            replacements.insert(result, value);
                        }
                    }
                    _ => {}
                }
            }
            block.instructions.retain(|inst| {
                inst.result
                    .is_none_or(|r| !replacements.contains_key(&r))
            });
        }
        replace_uses(function, &replacements);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_ir::validate::validate;
    use trx_ir::{interp, Inputs, ModuleBuilder, Value};

    fn check_pass_preserves(module: &Module, pass: PassKind) -> Module {
        let inputs = Inputs::default();
        let reference = interp::execute(module, &inputs).expect("reference runs");
        let mut optimized = module.clone();
        pass.run(&mut optimized);
        validate(&optimized)
            .unwrap_or_else(|e| panic!("{} broke validity: {e}", pass.name()));
        let result = interp::execute(&optimized, &inputs).expect("optimized runs");
        assert_eq!(reference, result, "{} changed semantics", pass.name());
        optimized
    }

    fn arithmetic_module() -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c2 = b.constant_int(2);
        let c3 = b.constant_int(3);
        let mut f = b.begin_entry_function("main");
        let x = f.imul(t_int, c2, c3);
        let copy = f.copy_object(x);
        let y = f.iadd(t_int, copy, c2);
        let y2 = f.iadd(t_int, copy, c2); // CSE fodder
        let z = f.iadd(t_int, y, y2);
        f.store_output("out", z);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn copy_propagation_removes_copies() {
        let m = arithmetic_module();
        let optimized = check_pass_preserves(&m, PassKind::CopyPropagation);
        let copies = optimized
            .entry_function()
            .instructions()
            .filter(|i| matches!(i.op, Op::CopyObject { .. }))
            .count();
        assert_eq!(copies, 0);
    }

    #[test]
    fn constant_folding_folds_arithmetic() {
        let m = arithmetic_module();
        let optimized = check_pass_preserves(&m, PassKind::ConstantFolding);
        // 2*3 folded away.
        let muls = optimized
            .entry_function()
            .instructions()
            .filter(|i| matches!(i.op, Op::Binary { op: BinOp::IMul, .. }))
            .count();
        assert_eq!(muls, 0);
    }

    #[test]
    fn dce_removes_unused() {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c = b.constant_int(5);
        let mut f = b.begin_entry_function("main");
        let _unused = f.iadd(t_int, c, c);
        f.store_output("out", c);
        f.ret();
        f.finish();
        let m = b.finish();
        let optimized = check_pass_preserves(&m, PassKind::DeadCodeElimination);
        assert_eq!(
            optimized.entry_function().entry_block().instructions.len(),
            1 // just the store
        );
    }

    #[test]
    fn cse_merges_duplicates() {
        let m = arithmetic_module();
        let optimized = check_pass_preserves(&m, PassKind::LocalCse);
        let adds = optimized
            .entry_function()
            .instructions()
            .filter(|i| matches!(i.op, Op::Binary { op: BinOp::IAdd, .. }))
            .count();
        assert_eq!(adds, 2, "one duplicated add should be eliminated");
    }

    fn branching_module(cond_value: bool) -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c_cond = b.constant_bool(cond_value);
        let c1 = b.constant_int(1);
        let c2 = b.constant_int(2);
        let mut f = b.begin_entry_function("main");
        let then_l = f.reserve_label();
        let merge_l = f.reserve_label();
        let entry = f.current_label();
        f.selection_merge(merge_l);
        f.branch_cond(c_cond, then_l, merge_l);
        f.begin_block_with_label(then_l);
        let doubled = f.imul(t_int, c2, c2);
        f.branch(merge_l);
        f.begin_block_with_label(merge_l);
        let phi = f.phi(t_int, vec![(doubled, then_l), (c1, entry)]);
        f.store_output("out", phi);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn branch_folding_prunes_phis() {
        for value in [true, false] {
            let m = branching_module(value);
            let optimized = check_pass_preserves(&m, PassKind::ConstantFolding);
            let entry = optimized.entry_function().entry_block();
            assert!(
                matches!(entry.terminator, Terminator::Branch { .. }),
                "constant branch should fold"
            );
        }
    }

    #[test]
    fn cfg_simplification_after_branch_folding() {
        let m = branching_module(false);
        let mut optimized = m.clone();
        PassKind::ConstantFolding.run(&mut optimized);
        let optimized2 = check_pass_preserves(&optimized, PassKind::CfgSimplification);
        // then-block unreachable, merged/removed; far fewer blocks.
        assert!(
            optimized2.entry_function().blocks.len()
                < m.entry_function().blocks.len()
        );
    }

    fn call_module(control: FunctionControl) -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c2 = b.constant_int(2);
        let mut h = b.begin_function(t_int, &[t_int]);
        h.set_control(control);
        let p = h.param_ids()[0];
        let doubled = h.imul(t_int, p, c2);
        h.ret_value(doubled);
        let helper = h.finish();
        let c21 = b.constant_int(21);
        let mut f = b.begin_entry_function("main");
        let r = f.call(helper, vec![c21]);
        f.store_output("out", r);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn inlining_respects_dont_inline() {
        let m = call_module(FunctionControl::DontInline);
        let optimized = check_pass_preserves(&m, PassKind::Inlining);
        let calls = optimized
            .entry_function()
            .instructions()
            .filter(|i| matches!(i.op, Op::Call { .. }))
            .count();
        assert_eq!(calls, 1, "DontInline must be honoured");

        let m = call_module(FunctionControl::None);
        let optimized = check_pass_preserves(&m, PassKind::Inlining);
        let calls = optimized
            .entry_function()
            .instructions()
            .filter(|i| matches!(i.op, Op::Call { .. }))
            .count();
        assert_eq!(calls, 0, "small functions inline");
    }

    #[test]
    fn phi_simplification_collapses_trivial_phis() {
        let mut m = branching_module(true);
        // Make both phi incomings the same constant.
        let c1 = m.constants.iter().find(|c| c.value == ConstantValue::Int(1)).unwrap().id;
        let f = m.functions.first_mut().unwrap();
        for block in &mut f.blocks {
            for inst in &mut block.instructions {
                if let Op::Phi { incoming } = &mut inst.op {
                    for (v, _) in incoming {
                        *v = c1;
                    }
                }
            }
        }
        let optimized = check_pass_preserves(&m, PassKind::PhiSimplification);
        let phis = optimized
            .entry_function()
            .instructions()
            .filter(|i| i.is_phi())
            .count();
        assert_eq!(phis, 0);
    }

    #[test]
    fn store_load_forwarding_within_block() {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c7 = b.constant_int(7);
        let mut f = b.begin_entry_function("main");
        let v = f.local_var(t_int, None);
        f.store(v, c7);
        let loaded = f.load(v);
        f.store_output("out", loaded);
        f.ret();
        f.finish();
        let m = b.finish();
        let optimized = check_pass_preserves(&m, PassKind::StoreLoadForwarding);
        let loads = optimized
            .entry_function()
            .instructions()
            .filter(|i| matches!(i.op, Op::Load { .. }))
            .count();
        assert_eq!(loads, 0, "the load should be forwarded");
    }

    #[test]
    fn full_pipeline_preserves_semantics_on_uniform_input() {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let u = b.uniform("k", t_int);
        let c10 = b.constant_int(10);
        let mut f = b.begin_entry_function("main");
        let loaded = f.load(u);
        let sum = f.iadd(t_int, loaded, c10);
        f.store_output("out", sum);
        f.ret();
        f.finish();
        let m = b.finish();
        let inputs = Inputs::new().with("k", Value::Int(5));
        let reference = interp::execute(&m, &inputs).unwrap();
        let mut optimized = m;
        for pass in PassKind::ALL {
            pass.run(&mut optimized);
            validate(&optimized).unwrap_or_else(|e| panic!("{}: {e}", pass.name()));
        }
        assert_eq!(reference, interp::execute(&optimized, &inputs).unwrap());
    }

    use trx_ir::ConstantValue;
}
