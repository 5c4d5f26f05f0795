//! Stable descriptors for instruction positions and id uses.
//!
//! §2.3 of the paper: transformations should be as independent as possible,
//! which rules out addressing instructions by raw `(block, offset)` pairs —
//! removing one transformation from a sequence would shift the offsets
//! another depends on. Instead, positions are anchored on *result ids*,
//! which are stable across unrelated edits.

use serde::{Deserialize, Serialize};

use trx_ir::{Id, Module};

/// What an [`InstructionDescriptor`] is anchored on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Anchor {
    /// The instruction whose result id this is.
    Result(Id),
    /// The first instruction of the block with this label.
    BlockStart(Id),
}

/// A position in a function body: an anchor plus a forward skip count within
/// the anchor's block.
///
/// The position may denote an instruction slot (`0 <= slot < len`) or the
/// block's terminator position (`slot == len`), which is a valid *insertion*
/// point but not a valid instruction reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InstructionDescriptor {
    /// The anchor the position is relative to.
    pub anchor: Anchor,
    /// How many instructions to skip forward from the anchor.
    pub skip: u32,
}

impl InstructionDescriptor {
    /// The position of the instruction with result id `result`.
    #[must_use]
    pub fn of_result(result: Id) -> Self {
        InstructionDescriptor { anchor: Anchor::Result(result), skip: 0 }
    }

    /// The position `skip` instructions after the instruction with result id
    /// `result`.
    #[must_use]
    pub fn after_result(result: Id, skip: u32) -> Self {
        InstructionDescriptor { anchor: Anchor::Result(result), skip }
    }

    /// The position `skip` instructions after the start of block `label`.
    #[must_use]
    pub fn in_block(label: Id, skip: u32) -> Self {
        InstructionDescriptor { anchor: Anchor::BlockStart(label), skip }
    }
}

/// A resolved position inside a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedPoint {
    /// Index into [`Module::functions`].
    pub function: usize,
    /// Index into the function's block list.
    pub block: usize,
    /// Instruction slot; equals the block's instruction count when the
    /// position denotes "before the terminator".
    pub index: usize,
}

impl InstructionDescriptor {
    /// Resolves the descriptor against `module`.
    ///
    /// Returns `None` if the anchor does not exist or the skip runs past the
    /// terminator position of the anchor's block.
    #[must_use]
    pub fn resolve(&self, module: &Module) -> Option<ResolvedPoint> {
        let (function, block, base) = match self.anchor {
            Anchor::Result(result) => {
                let (loc, _) = module.find_result(result)?;
                (loc.function, loc.block, loc.index)
            }
            Anchor::BlockStart(label) => {
                let (fi, f) = module
                    .functions
                    .iter()
                    .enumerate()
                    .find(|(_, f)| f.block(label).is_some())?;
                let bi = f.block_index(label)?;
                (fi, bi, 0)
            }
        };
        let len = module.functions[function].blocks[block].instructions.len();
        let index = base + self.skip as usize;
        if index > len {
            return None;
        }
        Some(ResolvedPoint { function, block, index })
    }

    /// Resolves the descriptor to an existing instruction (not the
    /// terminator slot).
    #[must_use]
    pub fn resolve_instruction(&self, module: &Module) -> Option<ResolvedPoint> {
        let point = self.resolve(module)?;
        let len = module.functions[point.function].blocks[point.block]
            .instructions
            .len();
        (point.index < len).then_some(point)
    }
}

/// A use of an id: an operand slot of an instruction or of a block
/// terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UseDescriptor {
    /// Operand `operand` (in [`trx_ir::Op::id_operands`] order) of the
    /// instruction at `target`.
    Instruction {
        /// The instruction holding the use.
        target: InstructionDescriptor,
        /// Index into the instruction's id-operand list.
        operand: u32,
    },
    /// Operand `operand` of the terminator of block `block`.
    Terminator {
        /// The block whose terminator holds the use.
        block: Id,
        /// Index into the terminator's id-operand list.
        operand: u32,
    },
}

impl UseDescriptor {
    /// The id currently used at this position, if it resolves.
    #[must_use]
    pub fn used_id(&self, module: &Module) -> Option<Id> {
        match self {
            UseDescriptor::Instruction { target, operand } => {
                let point = target.resolve_instruction(module)?;
                let inst = &module.functions[point.function].blocks[point.block]
                    .instructions[point.index];
                inst.op.id_operands().get(*operand as usize).copied()
            }
            UseDescriptor::Terminator { block, operand } => {
                let function = module.functions.iter().find(|f| f.block(*block).is_some())?;
                let b = function.block(*block)?;
                b.terminator.id_operands().nth(*operand as usize)
            }
        }
    }

    /// Rewrites the id used at this position to `replacement`.
    ///
    /// Returns `false` (leaving the module unchanged) if the use does not
    /// resolve.
    pub fn replace_with(&self, module: &mut Module, replacement: Id) -> bool {
        match self {
            UseDescriptor::Instruction { target, operand } => {
                let Some(point) = target.resolve_instruction(module) else {
                    return false;
                };
                let inst = &mut module.functions[point.function].blocks[point.block]
                    .instructions[point.index];
                let mut current = 0u32;
                let mut replaced = false;
                inst.op.for_each_id_operand_mut(|id| {
                    if current == *operand {
                        *id = replacement;
                        replaced = true;
                    }
                    current += 1;
                });
                replaced
            }
            UseDescriptor::Terminator { block, operand } => {
                for function in &mut module.functions {
                    if let Some(b) = function.block_mut(*block) {
                        let mut current = 0u32;
                        let mut replaced = false;
                        b.terminator.for_each_id_operand_mut(|id| {
                            if current == *operand {
                                *id = replacement;
                                replaced = true;
                            }
                            current += 1;
                        });
                        return replaced;
                    }
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_ir::ModuleBuilder;

    fn module_with_two_instructions() -> (Module, Id, Id) {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        let first = f.iadd(t_int, c, c);
        let second = f.iadd(t_int, first, c);
        f.store_output("out", second);
        f.ret();
        f.finish();
        (b.finish(), first, second)
    }

    #[test]
    fn result_anchor_resolves() {
        let (m, first, second) = module_with_two_instructions();
        let p = InstructionDescriptor::of_result(first).resolve(&m).unwrap();
        assert_eq!(p.index, 0);
        let p2 = InstructionDescriptor::of_result(second).resolve(&m).unwrap();
        assert_eq!(p2.index, 1);
    }

    #[test]
    fn skip_moves_forward_within_block() {
        let (m, first, _) = module_with_two_instructions();
        let p = InstructionDescriptor::after_result(first, 2).resolve(&m).unwrap();
        assert_eq!(p.index, 2);
        // Block has 3 instructions (two adds + store); skip to terminator
        // slot is allowed, one past is not.
        assert!(InstructionDescriptor::after_result(first, 3).resolve(&m).is_some());
        assert!(InstructionDescriptor::after_result(first, 4).resolve(&m).is_none());
    }

    #[test]
    fn terminator_slot_is_not_an_instruction() {
        let (m, first, _) = module_with_two_instructions();
        assert!(InstructionDescriptor::after_result(first, 3)
            .resolve_instruction(&m)
            .is_none());
        assert!(InstructionDescriptor::after_result(first, 2)
            .resolve_instruction(&m)
            .is_some());
    }

    #[test]
    fn block_start_anchor_resolves() {
        let (m, first, _) = module_with_two_instructions();
        let entry = m.entry_function().entry_label();
        let p = InstructionDescriptor::in_block(entry, 0).resolve(&m).unwrap();
        assert_eq!(p.index, 0);
        let inst = &m.functions[p.function].blocks[p.block].instructions[p.index];
        assert_eq!(inst.result, Some(first));
    }

    #[test]
    fn missing_anchor_fails_to_resolve() {
        let (m, _, _) = module_with_two_instructions();
        let bogus = Id::new(m.id_bound + 5);
        assert!(InstructionDescriptor::of_result(bogus).resolve(&m).is_none());
    }

    #[test]
    fn use_descriptor_reads_and_writes() {
        let (mut m, first, second) = module_with_two_instructions();
        let use_of_first = UseDescriptor::Instruction {
            target: InstructionDescriptor::of_result(second),
            operand: 0,
        };
        assert_eq!(use_of_first.used_id(&m), Some(first));
        let replacement = m.constants[0].id;
        assert!(use_of_first.replace_with(&mut m, replacement));
        assert_eq!(use_of_first.used_id(&m), Some(replacement));
    }

    #[test]
    fn out_of_range_operand_is_none() {
        let (m, _, second) = module_with_two_instructions();
        let desc = UseDescriptor::Instruction {
            target: InstructionDescriptor::of_result(second),
            operand: 99,
        };
        assert_eq!(desc.used_id(&m), None);
    }
}
