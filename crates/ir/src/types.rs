use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Id;

/// The storage class of a pointer or variable, mirroring SPIR-V storage
/// classes relevant to the Vulkan fragment-shader model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StorageClass {
    /// Function-local storage, allocated per activation.
    Function,
    /// Module-private global storage.
    Private,
    /// Read-only storage initialised from the shader's inputs (uniforms).
    Uniform,
    /// Per-invocation built-in inputs (e.g. the fragment coordinate).
    Input,
    /// Per-invocation outputs (e.g. the fragment colour).
    Output,
}

impl StorageClass {
    /// All storage classes, in encoding order.
    pub const ALL: [StorageClass; 5] = [
        StorageClass::Function,
        StorageClass::Private,
        StorageClass::Uniform,
        StorageClass::Input,
        StorageClass::Output,
    ];

    /// Returns `true` if a shader may write through pointers of this class.
    #[must_use]
    pub fn is_writable(self) -> bool {
        matches!(
            self,
            StorageClass::Function | StorageClass::Private | StorageClass::Output
        )
    }
}

impl fmt::Display for StorageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StorageClass::Function => "Function",
            StorageClass::Private => "Private",
            StorageClass::Uniform => "Uniform",
            StorageClass::Input => "Input",
            StorageClass::Output => "Output",
        };
        f.write_str(name)
    }
}

/// A type declaration.
///
/// Aggregate types refer to their element types by [`Id`], so a type is only
/// meaningful relative to the [`Module`](crate::Module) that declares it.
/// Scalars are 32-bit, as in the Vulkan subset of SPIR-V.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// The unit type of functions that return nothing.
    Void,
    /// Boolean truth values.
    Bool,
    /// 32-bit signed integers (two's complement, wrapping semantics).
    Int,
    /// 32-bit IEEE-754 floating point.
    Float,
    /// A vector of 2–4 scalar components.
    Vector {
        /// Id of the scalar component type.
        component: Id,
        /// Number of components (2, 3 or 4).
        count: u32,
    },
    /// A fixed-length array.
    Array {
        /// Id of the element type.
        element: Id,
        /// Number of elements; must be positive.
        len: u32,
    },
    /// A structure with ordered members.
    Struct {
        /// Ids of the member types, in declaration order.
        members: Vec<Id>,
    },
    /// A pointer into a particular storage class.
    Pointer {
        /// The storage class pointed into.
        storage: StorageClass,
        /// Id of the pointee type.
        pointee: Id,
    },
    /// A function type.
    Function {
        /// Id of the return type.
        ret: Id,
        /// Ids of the parameter types, in order.
        params: Vec<Id>,
    },
}

impl Type {
    /// Returns `true` for scalar (bool/int/float) types.
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::Bool | Type::Int | Type::Float)
    }

    /// Returns `true` for aggregate (vector/array/struct) types, the types
    /// that composite instructions operate on.
    #[must_use]
    pub fn is_composite(&self) -> bool {
        matches!(
            self,
            Type::Vector { .. } | Type::Array { .. } | Type::Struct { .. }
        )
    }

    /// Ids of types this type directly refers to.
    pub fn referenced_ids(&self) -> impl Iterator<Item = Id> + '_ {
        let (head, rest): (Option<Id>, &[Id]) = match self {
            Type::Void | Type::Bool | Type::Int | Type::Float => (None, &[]),
            Type::Vector { component: id, .. }
            | Type::Array { element: id, .. }
            | Type::Pointer { pointee: id, .. } => (Some(*id), &[]),
            Type::Struct { members } => (None, members),
            Type::Function { ret, params } => (Some(*ret), params),
        };
        head.into_iter().chain(rest.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_classification() {
        assert!(Type::Bool.is_scalar());
        assert!(Type::Int.is_scalar());
        assert!(Type::Float.is_scalar());
        assert!(!Type::Void.is_scalar());
        assert!(!Type::Struct { members: vec![] }.is_scalar());
    }

    #[test]
    fn composite_classification() {
        let vec = Type::Vector { component: Id::new(1), count: 4 };
        assert!(vec.is_composite());
        assert!(!Type::Int.is_composite());
        assert!(!Type::Pointer { storage: StorageClass::Function, pointee: Id::new(1) }
            .is_composite());
    }

    #[test]
    fn referenced_ids_cover_function_types() {
        let ty = Type::Function { ret: Id::new(1), params: vec![Id::new(2), Id::new(3)] };
        let ids: Vec<Id> = ty.referenced_ids().collect();
        assert_eq!(ids, vec![Id::new(1), Id::new(2), Id::new(3)]);
    }

    #[test]
    fn writable_storage_classes() {
        assert!(StorageClass::Function.is_writable());
        assert!(StorageClass::Output.is_writable());
        assert!(!StorageClass::Uniform.is_writable());
        assert!(!StorageClass::Input.is_writable());
    }
}
