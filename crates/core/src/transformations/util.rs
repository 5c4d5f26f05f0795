//! Shared helpers for transformation preconditions and effects.

use trx_ir::{Id, Instruction, Module, Op};

use crate::descriptor::{ResolvedPoint, UseDescriptor};
use crate::Context;

/// Inserts `inst` at `point` (shifting later instructions down).
pub(crate) fn insert_at(module: &mut Module, point: ResolvedPoint, inst: Instruction) {
    module.functions[point.function].blocks[point.block]
        .instructions
        .insert(point.index, inst);
}

/// How a use site consumes the id, for availability checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UseSite {
    /// Ordinary instruction operand at a point.
    Plain(ResolvedPoint),
    /// Phi operand: the value flows in from `pred`, so availability is
    /// checked at the end of that block.
    PhiIncoming {
        /// Function index containing the phi.
        function: usize,
        /// Predecessor block supplying the value.
        pred: Id,
    },
    /// Terminator operand of a block.
    Terminator {
        /// Function index containing the block.
        function: usize,
        /// The block whose terminator uses the id.
        block: Id,
    },
}

/// Analyzes a use descriptor: resolves it, rejects positions whose operand
/// cannot be legally rewritten (struct indexes of access chains must stay
/// constants, callees must stay function ids, variable initializers must
/// stay constants), and reports where an eventual replacement must be
/// available.
pub(crate) fn analyze_use(ctx: &Context, use_desc: &UseDescriptor) -> Option<(Id, UseSite)> {
    match use_desc {
        UseDescriptor::Instruction { target, operand } => {
            let point = target.resolve_instruction(&ctx.module)?;
            let inst = &ctx.module.functions[point.function].blocks[point.block]
                .instructions[point.index];
            let used = inst.op.id_operands().get(*operand as usize).copied()?;
            match &inst.op {
                // Indexes into structs must remain literal constants;
                // conservatively only the base of an access chain may be
                // rewritten.
                Op::AccessChain { .. } if *operand != 0 => None,
                // The callee operand names a function, not a value.
                Op::Call { .. } if *operand == 0 => None,
                // Variable initializers must remain constants.
                Op::Variable { .. } => None,
                Op::Phi { incoming } => {
                    let (_, pred) = incoming.get(*operand as usize)?;
                    Some((used, UseSite::PhiIncoming { function: point.function, pred: *pred }))
                }
                _ => Some((used, UseSite::Plain(point))),
            }
        }
        UseDescriptor::Terminator { block, operand } => {
            let (fi, f) = ctx
                .module
                .functions
                .iter()
                .enumerate()
                .find(|(_, f)| f.block(*block).is_some())?;
            let b = f.block(*block)?;
            let used = b.terminator.id_operands().nth(*operand as usize)?;
            Some((used, UseSite::Terminator { function: fi, block: *block }))
        }
    }
}

/// Returns `true` if `id` is available at the use site.
pub(crate) fn replacement_available(ctx: &Context, site: UseSite, id: Id) -> bool {
    match site {
        UseSite::Plain(point) => ctx.available_at(point, id),
        UseSite::PhiIncoming { function, pred } => {
            ctx.available_at_block_end(function, pred, id)
        }
        UseSite::Terminator { function, block } => {
            ctx.available_at_block_end(function, block, id)
        }
    }
}

/// Rewrites phi incomings in every block of `function_index` so that edges
/// formerly coming from `from` are attributed to `to`. Used when a
/// transformation redirects an edge through a new block.
pub(crate) fn retarget_phi_preds(module: &mut Module, function_index: usize, from: Id, to: Id) {
    for block in &mut module.functions[function_index].blocks {
        for inst in &mut block.instructions {
            if let Op::Phi { incoming } = &mut inst.op {
                for (_, pred) in incoming {
                    if *pred == from {
                        *pred = to;
                    }
                }
            }
        }
    }
}

/// Raises the module id bound over every id in `ids`.
pub(crate) fn cover_ids(module: &mut Module, ids: &[Id]) {
    for &id in ids {
        module.ensure_bound_covers(id);
    }
}
