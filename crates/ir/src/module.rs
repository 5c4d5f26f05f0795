use serde::{Deserialize, Serialize};

use crate::{
    ConstantDecl, ConstantValue, Function, Id, IdAllocator, Instruction, StorageClass, Type,
};

/// A module-level type declaration: `id` names `ty`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeDecl {
    /// The type's id.
    pub id: Id,
    /// The declared type.
    pub ty: Type,
}

/// A module-level (non-function-local) variable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalVariable {
    /// The variable's result id. Loads/stores refer to this pointer id.
    pub id: Id,
    /// Id of the variable's pointer type.
    pub ty: Id,
    /// Storage class; must match the pointer type's class.
    pub storage: StorageClass,
    /// Optional constant initializer.
    pub initializer: Option<Id>,
}

/// Binds a shader-interface name to a global variable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterfaceBinding {
    /// The external name (e.g. a uniform or output name).
    pub name: String,
    /// The bound global variable id.
    pub global: Id,
}

/// The shader's external interface: which globals are fed from inputs and
/// which carry results out.
///
/// This plays the role of the "file describing the inputs on which the module
/// will be executed" that spirv-fuzz consumes (§3.2): the concrete runtime
/// values live in [`Inputs`](crate::Inputs), keyed by these names.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interface {
    /// Uniform inputs, read-only during execution.
    pub uniforms: Vec<InterfaceBinding>,
    /// Per-invocation built-in inputs (e.g. `gl_FragCoord`).
    pub builtins: Vec<InterfaceBinding>,
    /// Outputs collected when execution finishes.
    pub outputs: Vec<InterfaceBinding>,
}

impl Interface {
    /// Finds the uniform binding for a global variable id.
    #[must_use]
    pub fn uniform_name(&self, global: Id) -> Option<&str> {
        self.uniforms
            .iter()
            .find(|b| b.global == global)
            .map(|b| b.name.as_str())
    }
}

/// Where an instruction lives inside a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrLocation {
    /// Index of the containing function in [`Module::functions`].
    pub function: usize,
    /// Index of the containing block in [`Function::blocks`].
    pub block: usize,
    /// Index of the instruction in [`Block::instructions`](crate::Block::instructions).
    pub index: usize,
}

/// A shader module: declarations followed by functions, one of which is the
/// entry point.
///
/// All ids are unique module-wide; `id_bound` is strictly greater than every
/// id in use, exactly as in a SPIR-V binary header.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Module {
    /// Strict upper bound on all ids in use.
    pub id_bound: u32,
    /// Type declarations, in dependency order.
    pub types: Vec<TypeDecl>,
    /// Constant declarations; composite constants follow their parts.
    pub constants: Vec<ConstantDecl>,
    /// Global variables.
    pub globals: Vec<GlobalVariable>,
    /// Functions; order is irrelevant except for readability.
    pub functions: Vec<Function>,
    /// Id of the entry-point function.
    pub entry_point: Id,
    /// The external interface.
    pub interface: Interface,
}

impl Module {
    /// Looks up a type declaration by id.
    #[must_use]
    pub fn type_of(&self, id: Id) -> Option<&Type> {
        self.types.iter().find(|d| d.id == id).map(|d| &d.ty)
    }

    /// Finds the id of an already-declared type equal to `ty`.
    #[must_use]
    pub fn lookup_type(&self, ty: &Type) -> Option<Id> {
        self.types.iter().find(|d| &d.ty == ty).map(|d| d.id)
    }

    /// Looks up a constant declaration by id.
    #[must_use]
    pub fn constant(&self, id: Id) -> Option<&ConstantDecl> {
        self.constants.iter().find(|c| c.id == id)
    }

    /// Finds the id of an already-declared constant with the given type and
    /// value.
    #[must_use]
    pub fn lookup_constant(&self, ty: Id, value: &ConstantValue) -> Option<Id> {
        self.constants
            .iter()
            .find(|c| c.ty == ty && &c.value == value)
            .map(|c| c.id)
    }

    /// Looks up a global variable by id.
    #[must_use]
    pub fn global(&self, id: Id) -> Option<&GlobalVariable> {
        self.globals.iter().find(|g| g.id == id)
    }

    /// Looks up a function by id.
    #[must_use]
    pub fn function(&self, id: Id) -> Option<&Function> {
        self.functions.iter().find(|f| f.id == id)
    }

    /// Looks up a function by id, mutably.
    #[must_use]
    pub fn function_mut(&mut self, id: Id) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.id == id)
    }

    /// The entry-point function, if the entry point id names one. Decoded
    /// (unvalidated) modules may not have one; use this accessor on any
    /// module that has not passed validation.
    #[must_use]
    pub fn try_entry_function(&self) -> Option<&Function> {
        self.function(self.entry_point)
    }

    /// The entry-point function.
    ///
    /// # Panics
    ///
    /// Panics if the entry point id does not name a function (never true for
    /// validated modules). For unvalidated modules use
    /// [`Module::try_entry_function`].
    #[must_use]
    pub fn entry_function(&self) -> &Function {
        self.try_entry_function()
            .expect("entry point must name a function")
    }

    /// Finds the instruction with result id `id`, along with its location.
    #[must_use]
    pub fn find_result(&self, id: Id) -> Option<(InstrLocation, &Instruction)> {
        for (fi, f) in self.functions.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                for (ii, inst) in b.instructions.iter().enumerate() {
                    if inst.result == Some(id) {
                        return Some((InstrLocation { function: fi, block: bi, index: ii }, inst));
                    }
                }
            }
        }
        None
    }

    /// The type id of the value named by `id`, whether it is a constant,
    /// global variable, function parameter or instruction result.
    #[must_use]
    pub fn value_type(&self, id: Id) -> Option<Id> {
        if let Some(c) = self.constant(id) {
            return Some(c.ty);
        }
        if let Some(g) = self.global(id) {
            return Some(g.ty);
        }
        for f in &self.functions {
            for p in &f.params {
                if p.id == id {
                    return Some(p.ty);
                }
            }
        }
        self.find_result(id).and_then(|(_, inst)| inst.ty)
    }

    /// Returns `true` if the module declares `id` as a type, constant,
    /// global, function, parameter, block label or instruction result.
    #[must_use]
    pub fn declares(&self, id: Id) -> bool {
        self.types.iter().any(|d| d.id == id)
            || self.constants.iter().any(|c| c.id == id)
            || self.globals.iter().any(|g| g.id == id)
            || self.functions.iter().any(|f| {
                f.id == id
                    || f.params.iter().any(|p| p.id == id)
                    || f.blocks.iter().any(|b| {
                        b.label == id || b.instructions.iter().any(|i| i.result == Some(id))
                    })
            })
    }

    /// Returns `true` if `id` is unused: strictly below the bound check is
    /// not required, only that nothing declares it.
    #[must_use]
    pub fn is_fresh(&self, id: Id) -> bool {
        !id.is_placeholder() && !self.declares(id)
    }

    /// An allocator producing ids above the module's current bound.
    #[must_use]
    pub fn allocator(&self) -> IdAllocator {
        IdAllocator::new(self.id_bound)
    }

    /// Raises the id bound to cover `id`.
    pub fn ensure_bound_covers(&mut self, id: Id) {
        if id.raw() >= self.id_bound {
            self.id_bound = id.raw() + 1;
        }
    }

    /// Total instruction count using SPIR-V accounting: one instruction per
    /// type/constant/global declaration, one `OpEntryPoint`, plus each
    /// function's [`Function::instruction_count`].
    ///
    /// This is the size measure used for the paper's RQ2 reduction-quality
    /// metric (§4.2): reduction quality is the *difference* in this count
    /// between an original module and a reduced variant.
    #[must_use]
    pub fn instruction_count(&self) -> usize {
        1 + self.types.len()
            + self.constants.len()
            + self.globals.len()
            + self
                .functions
                .iter()
                .map(Function::instruction_count)
                .sum::<usize>()
    }
}

impl std::fmt::Display for Module {
    /// Formats the module as its textual disassembly.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&crate::disasm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    fn tiny_module() -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c1 = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        let sum = f.iadd(t_int, c1, c1);
        f.store_output("out", sum);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn lookup_type_finds_declared() {
        let m = tiny_module();
        assert!(m.lookup_type(&Type::Int).is_some());
        assert!(m.lookup_type(&Type::Void).is_some());
    }

    #[test]
    fn lookup_constant_exact_match() {
        let m = tiny_module();
        let t_int = m.lookup_type(&Type::Int).unwrap();
        assert!(m.lookup_constant(t_int, &ConstantValue::Int(1)).is_some());
        assert!(m.lookup_constant(t_int, &ConstantValue::Int(2)).is_none());
    }

    #[test]
    fn declares_covers_everything() {
        let m = tiny_module();
        let f = m.entry_function();
        let mut ids = vec![m.entry_point, f.entry_label()];
        ids.extend(m.types.iter().map(|d| d.id));
        ids.extend(m.constants.iter().map(|c| c.id));
        ids.extend(m.globals.iter().map(|g| g.id));
        ids.extend(f.instructions().filter_map(|i| i.result));
        for id in ids {
            assert!(m.declares(id), "{id}");
            // The bound is strictly above all declared ids.
            assert!(id.raw() < m.id_bound);
        }
        assert!(!m.declares(Id::new(m.id_bound)));
    }

    #[test]
    fn fresh_ids_are_fresh() {
        let m = tiny_module();
        let fresh = m.allocator().fresh();
        assert!(m.is_fresh(fresh));
        assert!(!m.is_fresh(m.entry_point));
        assert!(!m.is_fresh(Id::PLACEHOLDER));
    }

    #[test]
    fn value_type_resolves_constants_and_results() {
        let m = tiny_module();
        let t_int = m.lookup_type(&Type::Int).unwrap();
        let c1 = m.lookup_constant(t_int, &ConstantValue::Int(1)).unwrap();
        assert_eq!(m.value_type(c1), Some(t_int));
    }

    #[test]
    fn instruction_count_is_stable() {
        let m = tiny_module();
        let n = m.instruction_count();
        assert!(n > 5, "expected a non-trivial count, got {n}");
        assert_eq!(n, m.clone().instruction_count());
    }

    #[test]
    fn display_is_the_disassembly() {
        let m = tiny_module();
        assert_eq!(m.to_string(), crate::disasm::disassemble(&m));
        assert!(m.to_string().contains("OpEntryPoint"));
    }

    #[test]
    fn ensure_bound_covers_raises() {
        let mut m = tiny_module();
        let big = Id::new(m.id_bound + 10);
        m.ensure_bound_covers(big);
        assert!(m.id_bound > big.raw());
    }
}
