//! Supporting transformations: declarations of types, constants and
//! variables.
//!
//! These are "not interesting in isolation, but fuzzer passes frequently use
//! them to enable more interesting transformations" (§3.2). They are on the
//! deduplication ignore list (§3.5).

use serde::{Deserialize, Serialize};

use trx_ir::{
    ConstantDecl, ConstantValue, GlobalVariable, Id, Instruction, Op, StorageClass, Type,
    TypeDecl,
};

use super::util::cover_ids;
use crate::Context;

/// Declares a new type.
///
/// Precondition: the fresh id is fresh; the type's referenced ids are
/// already-declared types; no structurally equal type exists (types stay
/// interned, so type equality is id equality everywhere else).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddType {
    /// Id for the new type.
    pub fresh_id: Id,
    /// The type to declare.
    pub ty: Type,
}

impl AddType {
    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        if !ctx.fresh_and_distinct(&[self.fresh_id]) {
            return false;
        }
        if ctx.module.lookup_type(&self.ty).is_some() {
            return false;
        }
        let refs_ok = self
            .ty
            .referenced_ids()
            .all(|r| ctx.module.type_of(r).is_some());
        let shape_ok = match &self.ty {
            Type::Vector { component, count } => {
                (2..=4).contains(count)
                    && matches!(
                        ctx.module.type_of(*component),
                        Some(Type::Bool | Type::Int | Type::Float)
                    )
            }
            Type::Array { len, .. } => *len > 0,
            Type::Function { params, .. } => params
                .iter()
                .all(|&p| !matches!(ctx.module.type_of(p), Some(Type::Void))),
            _ => true,
        };
        refs_ok && shape_ok
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        ctx.module
            .types
            .push(TypeDecl { id: self.fresh_id, ty: self.ty.clone() });
        cover_ids(&mut ctx.module, &[self.fresh_id]);
    }
}

/// Declares a new constant.
///
/// Precondition: the fresh id is fresh; the type exists and matches the
/// value; composite parts are already-declared constants; no equal constant
/// of the same type exists (constants stay interned).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddConstant {
    /// Id for the new constant.
    pub fresh_id: Id,
    /// Id of the constant's type.
    pub ty: Id,
    /// The constant's value.
    pub value: ConstantValue,
}

impl AddConstant {
    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        if !ctx.fresh_and_distinct(&[self.fresh_id]) {
            return false;
        }
        if ctx.module.lookup_constant(self.ty, &self.value).is_some() {
            return false;
        }
        match (&self.value, ctx.module.type_of(self.ty)) {
            (ConstantValue::Bool(_), Some(Type::Bool))
            | (ConstantValue::Int(_), Some(Type::Int))
            | (ConstantValue::Float(_), Some(Type::Float)) => true,
            (ConstantValue::Composite(parts), Some(ty)) => {
                let member_types: Option<Vec<Id>> = match ty {
                    Type::Vector { component, count } => {
                        Some(vec![*component; *count as usize])
                    }
                    Type::Array { element, len } => Some(vec![*element; *len as usize]),
                    Type::Struct { members } => Some(members.clone()),
                    _ => None,
                };
                member_types.is_some_and(|member_types| {
                    member_types.len() == parts.len()
                        && parts.iter().zip(member_types).all(|(p, want)| {
                            ctx.module.constant(*p).map(|c| c.ty) == Some(want)
                        })
                })
            }
            _ => false,
        }
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        ctx.module.constants.push(ConstantDecl {
            id: self.fresh_id,
            ty: self.ty,
            value: self.value.clone(),
        });
        cover_ids(&mut ctx.module, &[self.fresh_id]);
    }
}

/// Adds a zero-initialised module-private global variable whose contents are
/// irrelevant to the final result (records the `IrrelevantPointee` fact).
///
/// Precondition: the fresh id is fresh and the pointer type
/// `Private -> pointee` is already declared (use [`AddType`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddGlobalVariable {
    /// Id for the new global.
    pub fresh_id: Id,
    /// Id of the pointee (data) type.
    pub pointee: Id,
}

impl AddGlobalVariable {
    fn pointer_type(&self, ctx: &Context) -> Option<Id> {
        ctx.module.lookup_type(&Type::Pointer {
            storage: StorageClass::Private,
            pointee: self.pointee,
        })
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        ctx.fresh_and_distinct(&[self.fresh_id])
            && self.pointer_type(ctx).is_some()
            && ctx
                .module
                .type_of(self.pointee)
                .is_some_and(|t| t.is_scalar() || t.is_composite())
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let ty = self.pointer_type(ctx).expect("checked by precondition");
        ctx.module.globals.push(GlobalVariable {
            id: self.fresh_id,
            ty,
            storage: StorageClass::Private,
            initializer: None,
        });
        ctx.facts.add_irrelevant_pointee(self.fresh_id);
        cover_ids(&mut ctx.module, &[self.fresh_id]);
    }
}

/// Adds a zero-initialised function-local variable whose contents are
/// irrelevant to the final result (records the `IrrelevantPointee` fact).
///
/// Precondition: the fresh id is fresh, the function exists and the pointer
/// type `Function -> pointee` is already declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddLocalVariable {
    /// Id for the new variable.
    pub fresh_id: Id,
    /// The function receiving the variable.
    pub function: Id,
    /// Id of the pointee (data) type.
    pub pointee: Id,
}

impl AddLocalVariable {
    fn pointer_type(&self, ctx: &Context) -> Option<Id> {
        ctx.module.lookup_type(&Type::Pointer {
            storage: StorageClass::Function,
            pointee: self.pointee,
        })
    }

    pub(crate) fn precondition(&self, ctx: &Context) -> bool {
        ctx.fresh_and_distinct(&[self.fresh_id])
            && ctx.module.function(self.function).is_some()
            && self.pointer_type(ctx).is_some()
            && ctx
                .module
                .type_of(self.pointee)
                .is_some_and(|t| t.is_scalar() || t.is_composite())
    }

    pub(crate) fn apply(&self, ctx: &mut Context) {
        let ty = self.pointer_type(ctx).expect("checked by precondition");
        let function = ctx
            .module
            .function_mut(self.function)
            .expect("checked by precondition");
        function.blocks[0].instructions.insert(
            0,
            Instruction::with_result(
                self.fresh_id,
                ty,
                Op::Variable { storage: StorageClass::Function, initializer: None },
            ),
        );
        ctx.facts.add_irrelevant_pointee(self.fresh_id);
        cover_ids(&mut ctx.module, &[self.fresh_id]);
    }
}
