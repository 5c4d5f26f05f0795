use serde::{Deserialize, Serialize};

use crate::{Id, Instruction, Terminator};

/// A structured control-flow merge annotation, as required by SPIR-V for
/// blocks that end in a multi-way branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Merge {
    /// Header of a selection construct.
    Selection {
        /// The block where the branches of the selection re-join.
        merge: Id,
    },
    /// Header of a loop construct.
    Loop {
        /// The block control reaches when the loop exits.
        merge: Id,
        /// The loop's continue target.
        cont: Id,
    },
}

impl Merge {
    /// The merge block label.
    #[must_use]
    pub fn merge_block(self) -> Id {
        match self {
            Merge::Selection { merge } | Merge::Loop { merge, .. } => merge,
        }
    }

    /// Labels referenced by the annotation.
    pub fn referenced_labels(self) -> impl Iterator<Item = Id> {
        let (merge, cont) = match self {
            Merge::Selection { merge } => (merge, None),
            Merge::Loop { merge, cont } => (merge, Some(cont)),
        };
        std::iter::once(merge).chain(cont)
    }

    /// Rewrites each referenced label in place.
    pub fn for_each_label_mut(&mut self, mut f: impl FnMut(&mut Id)) {
        match self {
            Merge::Selection { merge } => f(merge),
            Merge::Loop { merge, cont } => {
                f(merge);
                f(cont);
            }
        }
    }
}

/// A basic block: a label, a straight-line instruction list, an optional
/// merge annotation and a terminator.
///
/// `Phi` instructions, when present, must form a prefix of `instructions`
/// (enforced by [`validate`](crate::validate::validate)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// The block's label id, unique within the module.
    pub label: Id,
    /// The block body. Phis first, then ordinary instructions.
    pub instructions: Vec<Instruction>,
    /// Structured control-flow annotation, if this block is a construct
    /// header.
    pub merge: Option<Merge>,
    /// The block terminator.
    pub terminator: Terminator,
}

impl Block {
    /// Creates an empty block that falls through to `target`.
    #[must_use]
    pub fn branching_to(label: Id, target: Id) -> Self {
        Block {
            label,
            instructions: Vec::new(),
            merge: None,
            terminator: Terminator::Branch { target },
        }
    }

    /// The number of leading `Phi` instructions.
    #[must_use]
    pub fn phi_count(&self) -> usize {
        self.instructions.iter().take_while(|i| i.is_phi()).count()
    }

    /// Iterates over the block's `Phi` instructions.
    pub fn phis(&self) -> impl Iterator<Item = &Instruction> {
        self.instructions.iter().take_while(|i| i.is_phi())
    }

    /// Finds the position of the instruction with result id `result`.
    #[must_use]
    pub fn position_of_result(&self, result: Id) -> Option<usize> {
        self.instructions.iter().position(|i| i.result == Some(result))
    }

    /// The labels control may flow to from this block.
    pub fn successors(&self) -> Vec<Id> {
        self.terminator.targets().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Terminator};

    fn phi(result: u32) -> Instruction {
        Instruction::with_result(Id::new(result), Id::new(90), Op::Phi { incoming: vec![] })
    }

    fn nop() -> Instruction {
        Instruction::without_result(Op::Nop)
    }

    #[test]
    fn phi_prefix_counted() {
        let block = Block {
            label: Id::new(1),
            instructions: vec![phi(10), phi(11), nop()],
            merge: None,
            terminator: Terminator::Return,
        };
        assert_eq!(block.phi_count(), 2);
        assert_eq!(block.phis().count(), 2);
    }

    #[test]
    fn successors_follow_terminator() {
        let block = Block::branching_to(Id::new(1), Id::new(2));
        assert_eq!(block.successors(), vec![Id::new(2)]);
    }

    #[test]
    fn position_of_result_finds_instruction() {
        let block = Block {
            label: Id::new(1),
            instructions: vec![nop(), phi(10)],
            merge: None,
            terminator: Terminator::Return,
        };
        assert_eq!(block.position_of_result(Id::new(10)), Some(1));
        assert_eq!(block.position_of_result(Id::new(11)), None);
    }

    #[test]
    fn merge_labels() {
        let m = Merge::Loop { merge: Id::new(4), cont: Id::new(5) };
        assert_eq!(m.merge_block(), Id::new(4));
        assert_eq!(m.referenced_labels().collect::<Vec<_>>(), vec![Id::new(4), Id::new(5)]);
    }
}
