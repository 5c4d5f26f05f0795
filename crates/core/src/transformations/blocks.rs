//! Control-flow transformations: block splitting, dead blocks, kills, block
//! permutation, selection wrapping, branch inversion and upward instruction
//! propagation.
//!
//! The structurally delicate transformations pair cheap syntactic checks with
//! a clone-apply-validate step in their preconditions, so `Pre(C)` implies
//! the effect yields a valid module — the soundness requirement of
//! Definition 2.4.

use serde::{Deserialize, Serialize};

use trx_ir::{
    Block, ConstantValue, Id, Instruction, Merge, Module, Op, Terminator, Type, UnOp,
};

use super::util::{cover_ids, retarget_phi_preds};
use crate::descriptor::InstructionDescriptor;
use crate::Context;

fn validates_after(ctx: &Context, apply: impl FnOnce(&mut Context)) -> bool {
    let mut probe = ctx.clone();
    apply(&mut probe);
    trx_ir::validate::validate(&probe.module).is_ok()
}

fn function_index_of_block(module: &Module, label: Id) -> Option<usize> {
    module
        .functions
        .iter()
        .position(|f| f.block(label).is_some())
}

fn is_true_bool_constant(module: &Module, id: Id) -> bool {
    module
        .constant(id)
        .is_some_and(|c| c.value == ConstantValue::Bool(true))
}

fn is_false_bool_constant(module: &Module, id: Id) -> bool {
    module
        .constant(id)
        .is_some_and(|c| c.value == ConstantValue::Bool(false))
}

/// Splits a block in two at an instruction position, placing the position's
/// instruction (and everything after it, plus the merge annotation and
/// terminator) in a fresh block.
///
/// Following §2.3, the split point is an [`InstructionDescriptor`] anchored
/// on a result id rather than a `(block, offset)` pair, so distinct splits
/// stay independent under reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitBlock {
    /// Position at which to split (instructions from here on move).
    pub position: InstructionDescriptor,
    /// Label for the new block.
    pub fresh_block_id: Id,
}

impl SplitBlock {
    fn cheap_pre(&self, ctx: &Context) -> bool {
        if !ctx.fresh_and_distinct(&[self.fresh_block_id]) {
            return false;
        }
        let Some(point) = self.position.resolve(&ctx.module) else {
            return false;
        };
        let block = &ctx.module.functions[point.function].blocks[point.block];
        // Cannot split inside the phi prefix, and variables must stay in the
        // entry block.
        point.index >= block.phi_count()
            && block.instructions[point.index..]
                .iter()
                .all(|i| !i.is_variable())
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        self.cheap_pre(ctx) && validates_after(ctx, |c| self.apply(c))
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let point = self.position.resolve(&ctx.module).expect("precondition");
        let function = &mut ctx.module.functions[point.function];
        let block = &mut function.blocks[point.block];
        let old_label = block.label;
        let moved = block.instructions.split_off(point.index);
        let merge = block.merge.take();
        let terminator = std::mem::replace(
            &mut block.terminator,
            Terminator::Branch { target: self.fresh_block_id },
        );
        let new_block = Block {
            label: self.fresh_block_id,
            instructions: moved,
            merge,
            terminator,
        };
        function.blocks.insert(point.block + 1, new_block);
        // Successors' phi edges now come from the new block.
        retarget_phi_preds(&mut ctx.module, point.function, old_label, self.fresh_block_id);
        cover_ids(&mut ctx.module, &[self.fresh_block_id]);
    }
}

/// Adds a dynamically-dead block guarded by a `true` boolean constant,
/// recording the `DeadBlock` fact (Table 1's `AddDeadBlock`, in the §2.3
/// "simple" form that requires the constant to exist already).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddDeadBlock {
    /// Label for the new dead block.
    pub fresh_block_id: Id,
    /// Existing block after which the dead block is introduced; must end in
    /// an unconditional branch.
    pub block: Id,
    /// Id of a `true` boolean constant guarding the live edge.
    pub condition: Id,
}

impl AddDeadBlock {
    fn cheap_pre(&self, ctx: &Context) -> bool {
        if !ctx.fresh_and_distinct(&[self.fresh_block_id]) {
            return false;
        }
        if !is_true_bool_constant(&ctx.module, self.condition) {
            return false;
        }
        let Some(fi) = function_index_of_block(&ctx.module, self.block) else {
            return false;
        };
        let block = ctx.module.functions[fi].block(self.block).expect("found above");
        match (&block.terminator, block.merge) {
            (Terminator::Branch { target }, None) => *target != self.block,
            _ => false,
        }
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        self.cheap_pre(ctx) && validates_after(ctx, |c| self.apply(c))
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let fi = function_index_of_block(&ctx.module, self.block).expect("precondition");
        let function = &mut ctx.module.functions[fi];
        let bi = function.block_index(self.block).expect("precondition");
        let succ = match function.blocks[bi].terminator {
            Terminator::Branch { target } => target,
            _ => unreachable!("precondition requires an unconditional branch"),
        };
        function.blocks[bi].merge = Some(Merge::Selection { merge: succ });
        function.blocks[bi].terminator = Terminator::BranchConditional {
            cond: self.condition,
            true_target: succ,
            false_target: self.fresh_block_id,
        };
        function.blocks.insert(
            bi + 1,
            Block::branching_to(self.fresh_block_id, succ),
        );
        // The merge block gains an incoming edge from the dead block; its
        // phis take the same values as along the original edge (those values
        // dominate the dead block, which sits strictly below `block`).
        let succ_block = function.block_mut(succ).expect("successor exists");
        for inst in &mut succ_block.instructions {
            if let Op::Phi { incoming } = &mut inst.op {
                if let Some((v, _)) = incoming.iter().find(|(_, p)| *p == self.block).copied() {
                    incoming.push((v, self.fresh_block_id));
                }
            }
        }
        ctx.facts.add_dead_block(self.fresh_block_id);
        cover_ids(&mut ctx.module, &[self.fresh_block_id]);
    }
}

/// Replaces the terminator of a known-dead block with `OpKill`, radically
/// changing the static control-flow graph with no semantic impact (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplaceBranchWithKill {
    /// The dead block whose branch is replaced.
    pub block: Id,
}

impl ReplaceBranchWithKill {
    fn cheap_pre(&self, ctx: &Context) -> bool {
        ctx.facts.block_is_dead(self.block)
            && function_index_of_block(&ctx.module, self.block).is_some_and(|fi| {
                let block = ctx.module.functions[fi].block(self.block).expect("found");
                matches!(block.terminator, Terminator::Branch { .. })
            })
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        self.cheap_pre(ctx) && validates_after(ctx, |c| self.apply(c))
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let fi = function_index_of_block(&ctx.module, self.block).expect("precondition");
        let function = &mut ctx.module.functions[fi];
        let bi = function.block_index(self.block).expect("precondition");
        let succ = match function.blocks[bi].terminator {
            Terminator::Branch { target } => target,
            _ => unreachable!("precondition requires an unconditional branch"),
        };
        function.blocks[bi].terminator = Terminator::Kill;
        // The edge to the successor is gone; drop matching phi incomings.
        let succ_block = function.block_mut(succ).expect("successor exists");
        for inst in &mut succ_block.instructions {
            if let Op::Phi { incoming } = &mut inst.op {
                incoming.retain(|(_, p)| *p != self.block);
            }
        }
    }
}

/// Swaps a block with its syntactic successor, provided SPIR-V dominance
/// ordering rules still hold. The `PermuteBlocks` fuzzer pass composes many
/// of these (§2.3: favor simple transformations). Figure 8b shows a real
/// Pixel 5 driver bug found by exactly this transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveBlockDown {
    /// The block to move one slot down.
    pub block: Id,
}

impl MoveBlockDown {
    fn cheap_pre(&self, ctx: &Context) -> bool {
        let Some(fi) = function_index_of_block(&ctx.module, self.block) else {
            return false;
        };
        let function = &ctx.module.functions[fi];
        let Some(bi) = function.block_index(self.block) else {
            return false;
        };
        // The entry block must stay first, and there must be a block to swap
        // with.
        bi >= 1 && bi + 1 < function.blocks.len()
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        self.cheap_pre(ctx) && validates_after(ctx, |c| self.apply(c))
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let fi = function_index_of_block(&ctx.module, self.block).expect("precondition");
        let function = &mut ctx.module.functions[fi];
        let bi = function.block_index(self.block).expect("precondition");
        function.blocks.swap(bi, bi + 1);
    }
}

/// Which arm of the wrapping conditional holds the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionForm {
    /// `if (true) { region }`
    Then,
    /// `if (false) { } else { region }`
    Else,
}

/// Patch for a definition inside a wrapped block that is used outside it:
/// the definition is routed through a phi in the new merge block, with an
/// `OpUndef` on the (never-taken) bypass edge, keeping SSA dominance intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscapePatch {
    /// The escaping definition.
    pub def: Id,
    /// Fresh id for the `OpUndef` placed in the selection header.
    pub fresh_undef: Id,
    /// Fresh id for the phi placed in the new merge block.
    pub fresh_phi: Id,
}

/// Wraps a block in a single-armed selection construct that always executes
/// it.
///
/// Both forms share one transformation type (§2.3: use the same type for
/// similar transformations), so deduplication treats then-wrapped and
/// else-wrapped test cases as alike.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WrapRegionInSelection {
    /// The block to wrap. Must have no phis, no merge annotation and an
    /// unconditional branch.
    pub block: Id,
    /// Which arm holds the block.
    pub form: SelectionForm,
    /// Boolean constant: `true` for [`SelectionForm::Then`], `false` for
    /// [`SelectionForm::Else`].
    pub condition: Id,
    /// Label for the new selection header.
    pub fresh_header_id: Id,
    /// Label for the new merge block.
    pub fresh_merge_id: Id,
    /// One patch per definition in the block used outside it, in the order
    /// the definitions appear.
    pub escapes: Vec<EscapePatch>,
}

impl WrapRegionInSelection {
    /// Results defined in `block` that are used outside it, in definition
    /// order. Fuzzer passes use this to build the `escapes` list.
    pub fn escaping_defs(function: &trx_ir::Function, block: Id) -> Vec<Id> {
        let Some(b) = function.block(block) else {
            return Vec::new();
        };
        let defs: Vec<Id> = b.instructions.iter().filter_map(|i| i.result).collect();
        defs.into_iter()
            .filter(|&def| {
                function.blocks.iter().filter(|other| other.label != block).any(|other| {
                    other
                        .instructions
                        .iter()
                        .any(|i| i.op.id_operands().contains(&def))
                        || other.terminator.id_operands().any(|o| o == def)
                })
            })
            .collect()
    }

    fn cheap_pre(&self, ctx: &Context) -> bool {
        let mut fresh = vec![self.fresh_header_id, self.fresh_merge_id];
        for patch in &self.escapes {
            fresh.push(patch.fresh_undef);
            fresh.push(patch.fresh_phi);
        }
        if !ctx.fresh_and_distinct(&fresh) {
            return false;
        }
        let condition_ok = match self.form {
            SelectionForm::Then => is_true_bool_constant(&ctx.module, self.condition),
            SelectionForm::Else => is_false_bool_constant(&ctx.module, self.condition),
        };
        if !condition_ok {
            return false;
        }
        let Some(fi) = function_index_of_block(&ctx.module, self.block) else {
            return false;
        };
        let function = &ctx.module.functions[fi];
        let Some(bi) = function.block_index(self.block) else {
            return false;
        };
        if bi == 0 {
            return false;
        }
        let block = &function.blocks[bi];
        let succ = match (&block.terminator, block.merge, block.phi_count()) {
            (Terminator::Branch { target }, None, 0) => *target,
            _ => return false,
        };
        if succ == self.block {
            return false;
        }
        // Nothing may use the block as a merge/continue target: the wrap
        // would change which block closes that construct.
        if function.blocks.iter().any(|b| {
            b.merge
                .is_some_and(|m| m.referenced_labels().any(|l| l == self.block))
        }) {
            return false;
        }
        // The escape patches must cover exactly the defs that leak out.
        let escaping = Self::escaping_defs(function, self.block);
        let declared: Vec<Id> = self.escapes.iter().map(|p| p.def).collect();
        escaping == declared
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        self.cheap_pre(ctx) && validates_after(ctx, |c| self.apply(c))
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let fi = function_index_of_block(&ctx.module, self.block).expect("precondition");
        let function = &mut ctx.module.functions[fi];
        let bi = function.block_index(self.block).expect("precondition");
        let succ = match function.blocks[bi].terminator {
            Terminator::Branch { target } => target,
            _ => unreachable!("precondition requires an unconditional branch"),
        };
        // Reroute every external use of an escaping def through its phi,
        // before any new blocks exist (the block's own uses stay direct).
        for patch in &self.escapes {
            for b in &mut function.blocks {
                if b.label == self.block {
                    continue;
                }
                for inst in &mut b.instructions {
                    inst.op.for_each_id_operand_mut(|id| {
                        if *id == patch.def {
                            *id = patch.fresh_phi;
                        }
                    });
                }
                b.terminator.for_each_id_operand_mut(|id| {
                    if *id == patch.def {
                        *id = patch.fresh_phi;
                    }
                });
            }
        }
        // All edges into the block now enter through the header.
        for b in &mut function.blocks {
            b.terminator.for_each_target_mut(|t| {
                if *t == self.block {
                    *t = self.fresh_header_id;
                }
            });
        }
        // The successor's phi edges from the block will come from the new
        // merge block; retarget now, while only pre-existing phis exist.
        retarget_phi_preds(&mut ctx.module, fi, self.block, self.fresh_merge_id);
        let (true_target, false_target) = match self.form {
            SelectionForm::Then => (self.block, self.fresh_merge_id),
            SelectionForm::Else => (self.fresh_merge_id, self.block),
        };
        // The header carries an OpUndef per escaping def, feeding the phi
        // along the (never-taken) bypass edge.
        let def_types: Vec<Option<Id>> = self
            .escapes
            .iter()
            .map(|p| ctx.module.value_type(p.def))
            .collect();
        let function = &mut ctx.module.functions[fi];
        let header_instructions: Vec<Instruction> = self
            .escapes
            .iter()
            .zip(&def_types)
            .map(|(patch, ty)| {
                Instruction::with_result(
                    patch.fresh_undef,
                    ty.expect("escaping defs have types"),
                    Op::Undef,
                )
            })
            .collect();
        let header = Block {
            label: self.fresh_header_id,
            instructions: header_instructions,
            merge: Some(Merge::Selection { merge: self.fresh_merge_id }),
            terminator: Terminator::BranchConditional {
                cond: self.condition,
                true_target,
                false_target,
            },
        };
        let merge_instructions: Vec<Instruction> = self
            .escapes
            .iter()
            .zip(&def_types)
            .map(|(patch, ty)| {
                Instruction::with_result(
                    patch.fresh_phi,
                    ty.expect("escaping defs have types"),
                    Op::Phi {
                        incoming: vec![
                            (patch.def, self.block),
                            (patch.fresh_undef, self.fresh_header_id),
                        ],
                    },
                )
            })
            .collect();
        let merge_block = Block {
            label: self.fresh_merge_id,
            instructions: merge_instructions,
            merge: None,
            terminator: Terminator::Branch { target: succ },
        };
        function.blocks[bi].terminator = Terminator::Branch { target: self.fresh_merge_id };
        function.blocks.insert(bi, header);
        function.blocks.insert(bi + 2, merge_block);
        let mut new_ids = vec![self.fresh_header_id, self.fresh_merge_id];
        for patch in &self.escapes {
            new_ids.push(patch.fresh_undef);
            new_ids.push(patch.fresh_phi);
        }
        cover_ids(&mut ctx.module, &new_ids);
    }
}

/// Negates a conditional branch's condition and swaps its targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvertConditionalBranch {
    /// The block whose conditional branch is inverted.
    pub block: Id,
    /// Id for the inserted `OpLogicalNot` result.
    pub fresh_not_id: Id,
}

impl InvertConditionalBranch {
    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        if !ctx.fresh_and_distinct(&[self.fresh_not_id]) {
            return false;
        }
        if ctx.module.lookup_type(&Type::Bool).is_none() {
            return false;
        }
        function_index_of_block(&ctx.module, self.block).is_some_and(|fi| {
            let block = ctx.module.functions[fi].block(self.block).expect("found");
            matches!(block.terminator, Terminator::BranchConditional { .. })
        })
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let bool_ty = ctx.module.lookup_type(&Type::Bool).expect("precondition");
        let fi = function_index_of_block(&ctx.module, self.block).expect("precondition");
        let function = &mut ctx.module.functions[fi];
        let block = function.block_mut(self.block).expect("precondition");
        let (cond, t, f) = match block.terminator {
            Terminator::BranchConditional { cond, true_target, false_target } => {
                (cond, true_target, false_target)
            }
            _ => unreachable!("precondition requires a conditional branch"),
        };
        block.instructions.push(Instruction::with_result(
            self.fresh_not_id,
            bool_ty,
            Op::Unary { op: UnOp::LogicalNot, src: cond },
        ));
        block.terminator = Terminator::BranchConditional {
            cond: self.fresh_not_id,
            true_target: f,
            false_target: t,
        };
        cover_ids(&mut ctx.module, &[self.fresh_not_id]);
    }
}

/// Duplicates the first non-phi instruction of a block into each of its
/// predecessors and replaces it with a phi over the copies.
///
/// Phi operands of the duplicated instruction are substituted with the
/// corresponding incoming value for each predecessor — the pattern of the
/// Mesa loop miscompilation in Figure 8a.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagateInstructionUp {
    /// The block whose leading non-phi instruction is propagated.
    pub block: Id,
    /// `(predecessor label, fresh result id)` for the copy placed in each
    /// predecessor. Must cover the block's predecessors exactly.
    pub fresh_ids: Vec<(Id, Id)>,
}

const PURE_FOR_PROPAGATION: fn(&Op) -> bool = |op| {
    matches!(
        op,
        Op::Binary { .. }
            | Op::Unary { .. }
            | Op::CopyObject { .. }
            | Op::Select { .. }
            | Op::CompositeConstruct { .. }
            | Op::CompositeExtract { .. }
            | Op::CompositeInsert { .. }
    )
};

impl PropagateInstructionUp {
    /// Maps the instruction's operands for predecessor `pred`: operands that
    /// are results of the block's own phis become that phi's incoming value
    /// for `pred`.
    fn mapped_op(block: &Block, pred: Id, op: &Op) -> Option<Op> {
        let mut mapped = op.clone();
        let mut ok = true;
        mapped.for_each_id_operand_mut(|id| {
            for phi in block.phis() {
                if phi.result == Some(*id) {
                    let Op::Phi { incoming } = &phi.op else { unreachable!() };
                    match incoming.iter().find(|(_, p)| *p == pred) {
                        Some((value, _)) => *id = *value,
                        None => ok = false,
                    }
                }
            }
        });
        ok.then_some(mapped)
    }

    fn cheap_pre(&self, ctx: &Context) -> bool {
        let fresh: Vec<Id> = self.fresh_ids.iter().map(|(_, f)| *f).collect();
        if !ctx.fresh_and_distinct(&fresh) {
            return false;
        }
        let Some(fi) = function_index_of_block(&ctx.module, self.block) else {
            return false;
        };
        let function = &ctx.module.functions[fi];
        let block = function.block(self.block).expect("found");
        let phi_count = block.phi_count();
        let Some(inst) = block.instructions.get(phi_count) else {
            return false;
        };
        if inst.result.is_none() || !PURE_FOR_PROPAGATION(&inst.op) {
            return false;
        }
        let mut preds = function.predecessors(self.block);
        preds.sort_unstable();
        let mut named: Vec<Id> = self.fresh_ids.iter().map(|(p, _)| *p).collect();
        named.sort_unstable();
        if preds.is_empty() || preds != named || preds.contains(&self.block) {
            return false;
        }
        // Every mapped operand must be available at the end of its
        // predecessor.
        self.fresh_ids.iter().all(|(pred, _)| {
            match Self::mapped_op(block, *pred, &inst.op) {
                None => false,
                Some(mapped) => mapped
                    .id_operands()
                    .iter()
                    .all(|&o| ctx.available_at_block_end(fi, *pred, o)),
            }
        })
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        self.cheap_pre(ctx) && validates_after(ctx, |c| self.apply(c))
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let fi = function_index_of_block(&ctx.module, self.block).expect("precondition");
        let function = &ctx.module.functions[fi];
        let block = function.block(self.block).expect("precondition");
        let phi_count = block.phi_count();
        let inst = block.instructions[phi_count].clone();
        let (result, ty) = (inst.result.expect("precondition"), inst.ty);

        // Place a copy at the end of each predecessor.
        let copies: Vec<(Id, Id, Op)> = self
            .fresh_ids
            .iter()
            .map(|&(pred, fresh)| {
                let mapped = Self::mapped_op(block, pred, &inst.op).expect("precondition");
                (pred, fresh, mapped)
            })
            .collect();
        for (pred, fresh, mapped) in copies {
            let function = &mut ctx.module.functions[fi];
            let pred_block = function.block_mut(pred).expect("precondition");
            pred_block
                .instructions
                .push(Instruction { result: Some(fresh), ty, op: mapped });
        }

        // Replace the instruction with a phi over the copies, keeping its
        // result id so downstream uses are untouched.
        let incoming = self.fresh_ids.iter().map(|&(p, f)| (f, p)).collect();
        let function = &mut ctx.module.functions[fi];
        let block = function.block_mut(self.block).expect("precondition");
        block.instructions[phi_count] =
            Instruction { result: Some(result), ty, op: Op::Phi { incoming } };
        let fresh: Vec<Id> = self.fresh_ids.iter().map(|(_, f)| *f).collect();
        cover_ids(&mut ctx.module, &fresh);
    }
}
