use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Id, StorageClass};

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinOp {
    // Integer arithmetic (wrapping, two's complement).
    IAdd,
    ISub,
    IMul,
    SDiv,
    SRem,
    // Float arithmetic.
    FAdd,
    FSub,
    FMul,
    FDiv,
    // Bitwise.
    BitAnd,
    BitOr,
    BitXor,
    ShiftLeft,
    ShiftRightArith,
    // Logical.
    LogicalAnd,
    LogicalOr,
    // Integer comparison.
    IEqual,
    INotEqual,
    SLessThan,
    SLessThanEqual,
    SGreaterThan,
    SGreaterThanEqual,
    // Float comparison (ordered).
    FOrdEqual,
    FOrdNotEqual,
    FOrdLessThan,
    FOrdLessThanEqual,
    FOrdGreaterThan,
    FOrdGreaterThanEqual,
}

impl BinOp {
    /// All binary operators, in encoding order.
    pub const ALL: [BinOp; 28] = [
        BinOp::IAdd,
        BinOp::ISub,
        BinOp::IMul,
        BinOp::SDiv,
        BinOp::SRem,
        BinOp::FAdd,
        BinOp::FSub,
        BinOp::FMul,
        BinOp::FDiv,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::ShiftLeft,
        BinOp::ShiftRightArith,
        BinOp::LogicalAnd,
        BinOp::LogicalOr,
        BinOp::IEqual,
        BinOp::INotEqual,
        BinOp::SLessThan,
        BinOp::SLessThanEqual,
        BinOp::SGreaterThan,
        BinOp::SGreaterThanEqual,
        BinOp::FOrdEqual,
        BinOp::FOrdNotEqual,
        BinOp::FOrdLessThan,
        BinOp::FOrdLessThanEqual,
        BinOp::FOrdGreaterThan,
        BinOp::FOrdGreaterThanEqual,
    ];

    /// Returns `true` if `a op b == b op a` for all defined inputs, which is
    /// what the `SwapCommutativeOperands` transformation relies on.
    ///
    /// Note that `FAdd`/`FMul` are commutative (though not associative) under
    /// IEEE-754, so they are included.
    #[must_use]
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::IAdd
                | BinOp::IMul
                | BinOp::FAdd
                | BinOp::FMul
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
                | BinOp::LogicalAnd
                | BinOp::LogicalOr
                | BinOp::IEqual
                | BinOp::INotEqual
                | BinOp::FOrdEqual
                | BinOp::FOrdNotEqual
        )
    }

    /// Returns `true` if the result type is `Bool` regardless of operand type.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::IEqual
                | BinOp::INotEqual
                | BinOp::SLessThan
                | BinOp::SLessThanEqual
                | BinOp::SGreaterThan
                | BinOp::SGreaterThanEqual
                | BinOp::FOrdEqual
                | BinOp::FOrdNotEqual
                | BinOp::FOrdLessThan
                | BinOp::FOrdLessThanEqual
                | BinOp::FOrdGreaterThan
                | BinOp::FOrdGreaterThanEqual
        )
    }

    /// The mnemonic used by the disassembler, in SPIR-V style.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::IAdd => "OpIAdd",
            BinOp::ISub => "OpISub",
            BinOp::IMul => "OpIMul",
            BinOp::SDiv => "OpSDiv",
            BinOp::SRem => "OpSRem",
            BinOp::FAdd => "OpFAdd",
            BinOp::FSub => "OpFSub",
            BinOp::FMul => "OpFMul",
            BinOp::FDiv => "OpFDiv",
            BinOp::BitAnd => "OpBitwiseAnd",
            BinOp::BitOr => "OpBitwiseOr",
            BinOp::BitXor => "OpBitwiseXor",
            BinOp::ShiftLeft => "OpShiftLeftLogical",
            BinOp::ShiftRightArith => "OpShiftRightArithmetic",
            BinOp::LogicalAnd => "OpLogicalAnd",
            BinOp::LogicalOr => "OpLogicalOr",
            BinOp::IEqual => "OpIEqual",
            BinOp::INotEqual => "OpINotEqual",
            BinOp::SLessThan => "OpSLessThan",
            BinOp::SLessThanEqual => "OpSLessThanEqual",
            BinOp::SGreaterThan => "OpSGreaterThan",
            BinOp::SGreaterThanEqual => "OpSGreaterThanEqual",
            BinOp::FOrdEqual => "OpFOrdEqual",
            BinOp::FOrdNotEqual => "OpFOrdNotEqual",
            BinOp::FOrdLessThan => "OpFOrdLessThan",
            BinOp::FOrdLessThanEqual => "OpFOrdLessThanEqual",
            BinOp::FOrdGreaterThan => "OpFOrdGreaterThan",
            BinOp::FOrdGreaterThanEqual => "OpFOrdGreaterThanEqual",
        }
    }
}

/// A unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnOp {
    SNegate,
    FNegate,
    LogicalNot,
    BitNot,
    /// Signed int to float conversion.
    ConvertSToF,
    /// Float to signed int conversion (round toward zero).
    ConvertFToS,
}

impl UnOp {
    /// All unary operators, in encoding order.
    pub const ALL: [UnOp; 6] = [
        UnOp::SNegate,
        UnOp::FNegate,
        UnOp::LogicalNot,
        UnOp::BitNot,
        UnOp::ConvertSToF,
        UnOp::ConvertFToS,
    ];

    /// The mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::SNegate => "OpSNegate",
            UnOp::FNegate => "OpFNegate",
            UnOp::LogicalNot => "OpLogicalNot",
            UnOp::BitNot => "OpNot",
            UnOp::ConvertSToF => "OpConvertSToF",
            UnOp::ConvertFToS => "OpConvertFToS",
        }
    }
}

/// The operation performed by an [`Instruction`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// An undefined value of the instruction's type.
    Undef,
    /// Copies `src`; the result is synonymous with the source.
    CopyObject {
        /// The id being copied.
        src: Id,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Id,
        /// Right operand.
        rhs: Id,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        src: Id,
    },
    /// Selects `if_true` or `if_false` based on a boolean condition.
    Select {
        /// Boolean condition.
        cond: Id,
        /// Value when the condition holds.
        if_true: Id,
        /// Value when the condition does not hold.
        if_false: Id,
    },
    /// Builds a composite value from parts.
    CompositeConstruct {
        /// The constituent ids, one per component/member/element.
        parts: Vec<Id>,
    },
    /// Extracts a nested component from a composite value.
    CompositeExtract {
        /// The composite being indexed.
        composite: Id,
        /// Literal index path.
        indices: Vec<u32>,
    },
    /// Produces a copy of `composite` with `object` inserted at a path.
    CompositeInsert {
        /// The value to insert.
        object: Id,
        /// The composite being updated.
        composite: Id,
        /// Literal index path.
        indices: Vec<u32>,
    },
    /// Declares a function-local variable (a memory cell).
    Variable {
        /// Storage class; `Function` for locals.
        storage: StorageClass,
        /// Optional constant initializer.
        initializer: Option<Id>,
    },
    /// Forms a pointer to a sub-object of a pointed-to composite.
    AccessChain {
        /// The base pointer.
        base: Id,
        /// Ids of integer indexes into the pointee.
        indices: Vec<Id>,
    },
    /// Loads the value a pointer refers to.
    Load {
        /// The pointer loaded from.
        pointer: Id,
    },
    /// Stores a value through a pointer. Produces no result.
    Store {
        /// The pointer stored through.
        pointer: Id,
        /// The value stored.
        value: Id,
    },
    /// Calls a function.
    Call {
        /// Id of the callee function.
        callee: Id,
        /// Argument ids, in order.
        args: Vec<Id>,
    },
    /// Selects a value according to the predecessor block control arrived
    /// from. Must appear at the start of a block.
    Phi {
        /// `(value, predecessor-label)` pairs.
        incoming: Vec<(Id, Id)>,
    },
    /// Does nothing.
    Nop,
}

impl Op {
    /// Returns `true` if the operation yields a result id.
    #[must_use]
    pub fn has_result(&self) -> bool {
        !matches!(self, Op::Store { .. } | Op::Nop)
    }

    /// Ids of values this operation uses (excluding phi predecessor labels).
    pub fn id_operands(&self) -> Vec<Id> {
        let mut ids = Vec::new();
        self.for_each_id_operand(|id| ids.push(id));
        ids
    }

    /// Visits each used value id (excluding phi predecessor labels).
    pub fn for_each_id_operand(&self, mut f: impl FnMut(Id)) {
        match self {
            Op::Undef | Op::Nop | Op::Variable { initializer: None, .. } => {}
            Op::Variable { initializer: Some(init), .. } => f(*init),
            Op::CopyObject { src } => f(*src),
            Op::Binary { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Op::Unary { src, .. } => f(*src),
            Op::Select { cond, if_true, if_false } => {
                f(*cond);
                f(*if_true);
                f(*if_false);
            }
            Op::CompositeConstruct { parts } => parts.iter().copied().for_each(f),
            Op::CompositeExtract { composite, .. } => f(*composite),
            Op::CompositeInsert { object, composite, .. } => {
                f(*object);
                f(*composite);
            }
            Op::AccessChain { base, indices } => {
                f(*base);
                indices.iter().copied().for_each(f);
            }
            Op::Load { pointer } => f(*pointer),
            Op::Store { pointer, value } => {
                f(*pointer);
                f(*value);
            }
            Op::Call { callee, args } => {
                f(*callee);
                args.iter().copied().for_each(f);
            }
            Op::Phi { incoming } => incoming.iter().for_each(|(value, _)| f(*value)),
        }
    }

    /// Rewrites each used value id in place (excluding phi predecessor
    /// labels). Used by `ReplaceIdWithSynonym`-style transformations and the
    /// inliner.
    pub fn for_each_id_operand_mut(&mut self, mut f: impl FnMut(&mut Id)) {
        match self {
            Op::Undef | Op::Nop | Op::Variable { initializer: None, .. } => {}
            Op::Variable { initializer: Some(init), .. } => f(init),
            Op::CopyObject { src } => f(src),
            Op::Binary { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Op::Unary { src, .. } => f(src),
            Op::Select { cond, if_true, if_false } => {
                f(cond);
                f(if_true);
                f(if_false);
            }
            Op::CompositeConstruct { parts } => parts.iter_mut().for_each(f),
            Op::CompositeExtract { composite, .. } => f(composite),
            Op::CompositeInsert { object, composite, .. } => {
                f(object);
                f(composite);
            }
            Op::AccessChain { base, indices } => {
                f(base);
                indices.iter_mut().for_each(f);
            }
            Op::Load { pointer } => f(pointer),
            Op::Store { pointer, value } => {
                f(pointer);
                f(value);
            }
            Op::Call { callee, args } => {
                f(callee);
                args.iter_mut().for_each(f);
            }
            Op::Phi { incoming } => incoming.iter_mut().for_each(|(value, _)| f(value)),
        }
    }

    /// The mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Undef => "OpUndef",
            Op::CopyObject { .. } => "OpCopyObject",
            Op::Binary { op, .. } => op.mnemonic(),
            Op::Unary { op, .. } => op.mnemonic(),
            Op::Select { .. } => "OpSelect",
            Op::CompositeConstruct { .. } => "OpCompositeConstruct",
            Op::CompositeExtract { .. } => "OpCompositeExtract",
            Op::CompositeInsert { .. } => "OpCompositeInsert",
            Op::Variable { .. } => "OpVariable",
            Op::AccessChain { .. } => "OpAccessChain",
            Op::Load { .. } => "OpLoad",
            Op::Store { .. } => "OpStore",
            Op::Call { .. } => "OpFunctionCall",
            Op::Phi { .. } => "OpPhi",
            Op::Nop => "OpNop",
        }
    }

    /// Returns `true` if the operation reads or writes memory, or transfers
    /// control; such instructions cannot be freely reordered.
    #[must_use]
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Op::Store { .. } | Op::Call { .. } | Op::Variable { .. } | Op::Load { .. }
        )
    }
}

/// An instruction: an optional result id and type, plus the operation.
///
/// Instructions without results (`Store`, `Nop`) have `result: None`;
/// `Variable`, `Call` and all value-producing operations carry a result id
/// unique within the module.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instruction {
    /// The result id, if the operation produces one.
    pub result: Option<Id>,
    /// The id of the result's type, if the operation produces a result.
    pub ty: Option<Id>,
    /// The operation.
    pub op: Op,
}

impl Instruction {
    /// Builds an instruction with a result id and type.
    #[must_use]
    pub fn with_result(result: Id, ty: Id, op: Op) -> Self {
        Instruction { result: Some(result), ty: Some(ty), op }
    }

    /// Builds a result-less instruction (e.g. a store).
    #[must_use]
    pub fn without_result(op: Op) -> Self {
        Instruction { result: None, ty: None, op }
    }

    /// Returns `true` if this is a `Phi`.
    #[must_use]
    pub fn is_phi(&self) -> bool {
        matches!(self.op, Op::Phi { .. })
    }

    /// Returns `true` if this is a local `Variable` declaration.
    #[must_use]
    pub fn is_variable(&self) -> bool {
        matches!(self.op, Op::Variable { .. })
    }
}

/// A basic block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional branch.
    Branch {
        /// The successor block label.
        target: Id,
    },
    /// Two-way conditional branch.
    BranchConditional {
        /// Boolean condition id.
        cond: Id,
        /// Label taken when the condition holds.
        true_target: Id,
        /// Label taken when the condition does not hold.
        false_target: Id,
    },
    /// Return from a void function.
    Return,
    /// Return a value.
    ReturnValue {
        /// The returned value id.
        value: Id,
    },
    /// Terminates the whole invocation (SPIR-V `OpKill`), discarding the
    /// fragment.
    Kill,
    /// Declares the block unreachable.
    Unreachable,
}

impl Terminator {
    /// The labels this terminator may branch to.
    pub fn targets(&self) -> impl Iterator<Item = Id> {
        let (first, second) = match *self {
            Terminator::Branch { target } => (Some(target), None),
            Terminator::BranchConditional { true_target, false_target, .. } => {
                (Some(true_target), Some(false_target))
            }
            Terminator::Return
            | Terminator::ReturnValue { .. }
            | Terminator::Kill
            | Terminator::Unreachable => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Rewrites each branch target label in place.
    pub fn for_each_target_mut(&mut self, mut f: impl FnMut(&mut Id)) {
        match self {
            Terminator::Branch { target } => f(target),
            Terminator::BranchConditional { true_target, false_target, .. } => {
                f(true_target);
                f(false_target);
            }
            _ => {}
        }
    }

    /// Ids of values the terminator uses.
    pub fn id_operands(&self) -> impl Iterator<Item = Id> {
        match *self {
            Terminator::BranchConditional { cond, .. } => Some(cond),
            Terminator::ReturnValue { value } => Some(value),
            _ => None,
        }
        .into_iter()
    }

    /// Rewrites each used value id in place.
    pub fn for_each_id_operand_mut(&mut self, mut f: impl FnMut(&mut Id)) {
        match self {
            Terminator::BranchConditional { cond, .. } => f(cond),
            Terminator::ReturnValue { value } => f(value),
            _ => {}
        }
    }

    /// The mnemonic used by the disassembler.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Terminator::Branch { .. } => "OpBranch",
            Terminator::BranchConditional { .. } => "OpBranchConditional",
            Terminator::Return => "OpReturn",
            Terminator::ReturnValue { .. } => "OpReturnValue",
            Terminator::Kill => "OpKill",
            Terminator::Unreachable => "OpUnreachable",
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::disasm::fmt_instruction(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutativity_of_float_ops() {
        assert!(BinOp::FAdd.is_commutative());
        assert!(BinOp::FMul.is_commutative());
        assert!(!BinOp::FSub.is_commutative());
        assert!(!BinOp::SDiv.is_commutative());
    }

    #[test]
    fn comparisons_are_boolean() {
        assert!(BinOp::SLessThan.is_comparison());
        assert!(!BinOp::IAdd.is_comparison());
    }

    #[test]
    fn store_has_no_result() {
        let op = Op::Store { pointer: Id::new(1), value: Id::new(2) };
        assert!(!op.has_result());
        assert!(Op::Load { pointer: Id::new(1) }.has_result());
    }

    #[test]
    fn operand_iteration_matches_mutation() {
        let mut op = Op::Select { cond: Id::new(1), if_true: Id::new(2), if_false: Id::new(3) };
        assert_eq!(op.id_operands(), vec![Id::new(1), Id::new(2), Id::new(3)]);
        op.for_each_id_operand_mut(|id| *id = Id::new(id.raw() + 10));
        assert_eq!(op.id_operands(), vec![Id::new(11), Id::new(12), Id::new(13)]);
    }

    #[test]
    fn phi_operands_exclude_labels() {
        let op = Op::Phi { incoming: vec![(Id::new(5), Id::new(100)), (Id::new(6), Id::new(101))] };
        assert_eq!(op.id_operands(), vec![Id::new(5), Id::new(6)]);
    }

    #[test]
    fn terminator_targets() {
        let t = Terminator::BranchConditional {
            cond: Id::new(1),
            true_target: Id::new(2),
            false_target: Id::new(3),
        };
        assert_eq!(t.targets().collect::<Vec<_>>(), vec![Id::new(2), Id::new(3)]);
        assert_eq!(Terminator::Return.targets().count(), 0);
        assert_eq!(t.id_operands().collect::<Vec<_>>(), vec![Id::new(1)]);
    }

    #[test]
    fn variable_initializer_is_an_operand() {
        let op = Op::Variable { storage: StorageClass::Function, initializer: Some(Id::new(9)) };
        assert_eq!(op.id_operands(), vec![Id::new(9)]);
    }
}
