//! Scanning helpers: enumerate the places a fuzzer pass could transform.

use trx_core::{InstructionDescriptor, UseDescriptor};
use trx_ir::{Block, Id, Module, Op};

/// A stable descriptor for the instruction slot `index` of `block`
/// (`index == instructions.len()` denotes the terminator slot).
///
/// Anchored on the nearest preceding result id when one exists, otherwise on
/// the block start, following the independence principle of §2.3.
#[must_use]
pub fn descriptor_for_slot(block: &Block, index: usize) -> InstructionDescriptor {
    // Walk backwards to the closest instruction (at or before `index`) that
    // has a result id.
    for back in (0..=index.min(block.instructions.len())).rev() {
        if back < block.instructions.len() {
            if let Some(result) = block.instructions[back].result {
                return InstructionDescriptor::after_result(result, (index - back) as u32);
            }
        }
    }
    InstructionDescriptor::in_block(block.label, index as u32)
}

/// All insertion slots in the module outside phi prefixes, including
/// before-terminator slots.
#[must_use]
pub fn insertion_points(module: &Module) -> Vec<InstructionDescriptor> {
    let mut out = Vec::new();
    for function in &module.functions {
        for block in &function.blocks {
            for index in block.phi_count()..=block.instructions.len() {
                out.push(descriptor_for_slot(block, index));
            }
        }
    }
    out
}

/// Insertion slots restricted to the blocks for which `keep` returns true.
#[must_use]
pub fn insertion_points_in(
    module: &Module,
    keep: impl Fn(Id) -> bool,
) -> Vec<InstructionDescriptor> {
    let mut out = Vec::new();
    for function in &module.functions {
        for block in &function.blocks {
            if !keep(block.label) {
                continue;
            }
            for index in block.phi_count()..=block.instructions.len() {
                out.push(descriptor_for_slot(block, index));
            }
        }
    }
    out
}

/// Every id-operand use in instruction bodies, with a stable descriptor.
#[must_use]
pub fn instruction_uses(module: &Module) -> Vec<(UseDescriptor, Id)> {
    let mut out = Vec::new();
    for function in &module.functions {
        for block in &function.blocks {
            for (index, inst) in block.instructions.iter().enumerate() {
                let target = descriptor_for_slot(block, index);
                for (operand, used) in inst.op.id_operands().into_iter().enumerate() {
                    out.push((
                        UseDescriptor::Instruction { target, operand: operand as u32 },
                        used,
                    ));
                }
            }
        }
    }
    out
}

/// Every id-operand use in block terminators.
#[must_use]
pub fn terminator_uses(module: &Module) -> Vec<(UseDescriptor, Id)> {
    let mut out = Vec::new();
    for function in &module.functions {
        for block in &function.blocks {
            for (operand, used) in block.terminator.id_operands().enumerate() {
                out.push((
                    UseDescriptor::Terminator { block: block.label, operand: operand as u32 },
                    used,
                ));
            }
        }
    }
    out
}

/// Result ids of all value-producing instructions, paired with their type.
#[must_use]
pub fn result_ids(module: &Module) -> Vec<(Id, Id)> {
    let mut out = Vec::new();
    for function in &module.functions {
        for block in &function.blocks {
            for inst in &block.instructions {
                if let (Some(result), Some(ty)) = (inst.result, inst.ty) {
                    out.push((result, ty));
                }
            }
        }
    }
    out
}

/// Labels of all blocks, with their function's id.
#[must_use]
pub fn block_labels(module: &Module) -> Vec<(Id, Id)> {
    module
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter().map(move |b| (f.id, b.label)))
        .collect()
}

/// Result ids of call instructions.
#[must_use]
pub fn call_results(module: &Module) -> Vec<Id> {
    module
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.instructions.iter())
        .filter(|i| matches!(i.op, Op::Call { .. }))
        .filter_map(|i| i.result)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_ir::ModuleBuilder;

    fn sample() -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        let x = f.iadd(t_int, c, c);
        let y = f.iadd(t_int, x, c);
        f.store_output("out", y);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn descriptors_resolve_to_their_slots() {
        let m = sample();
        let f = m.entry_function();
        let block = f.entry_block();
        for index in 0..=block.instructions.len() {
            let d = descriptor_for_slot(block, index);
            let p = d.resolve(&m).expect("slot descriptor must resolve");
            assert_eq!(p.index, index, "slot {index}");
        }
    }

    #[test]
    fn insertion_points_cover_all_slots() {
        let m = sample();
        // 3 instructions + terminator slot.
        assert_eq!(insertion_points(&m).len(), 4);
    }

    #[test]
    fn instruction_uses_enumerated() {
        let m = sample();
        let uses = instruction_uses(&m);
        // iadd(2) + iadd(2) + store(2) = 6 uses.
        assert_eq!(uses.len(), 6);
        for (desc, used) in &uses {
            assert_eq!(desc.used_id(&m), Some(*used));
        }
    }

    #[test]
    fn result_ids_have_types() {
        let m = sample();
        assert_eq!(result_ids(&m).len(), 2);
    }
}
