//! Transformation contexts (Definition 2.3): a program, an input on which it
//! is well-defined, and a set of facts about the pair.

use trx_ir::cfg::Dominators;
use trx_ir::validate::{validate, ValidationError};
use trx_ir::{Function, Id, Inputs, Module};

use crate::descriptor::ResolvedPoint;
use crate::FactStore;

/// A transformation context `(P, I, F)`.
///
/// The module is kept valid as an invariant: [`Context::new`] validates, and
/// every transformation's effect preserves validity (checked after each
/// application in debug builds by the engine).
#[derive(Debug, Clone)]
pub struct Context {
    /// The program.
    pub module: Module,
    /// The input on which the program is well-defined.
    pub inputs: Inputs,
    /// Facts established by transformations applied so far.
    pub facts: FactStore,
}

impl Context {
    /// Creates a context with an empty fact set.
    ///
    /// # Errors
    ///
    /// Returns the validation error if `module` is not valid.
    pub fn new(module: Module, inputs: Inputs) -> Result<Self, ValidationError> {
        validate(&module)?;
        Ok(Context { module, inputs, facts: FactStore::new() })
    }

    /// The function containing a resolved point.
    #[must_use]
    pub fn function_at(&self, point: ResolvedPoint) -> &Function {
        &self.module.functions[point.function]
    }

    /// Returns `true` if all ids are fresh (undeclared) and pairwise
    /// distinct — the standard freshness precondition.
    #[must_use]
    pub fn fresh_and_distinct(&self, ids: &[Id]) -> bool {
        ids.iter().enumerate().all(|(i, &id)| {
            !id.is_placeholder() && !ids[..i].contains(&id) && !self.module.declares(id)
        })
    }

    /// Returns `true` if the value `id` is available immediately before the
    /// instruction slot `point` (constants and globals are available
    /// everywhere; results must dominate the slot; parameters must belong to
    /// the containing function).
    #[must_use]
    pub fn available_at(&self, point: ResolvedPoint, id: Id) -> bool {
        if self.module.constant(id).is_some() || self.module.global(id).is_some() {
            return true;
        }
        let function = &self.module.functions[point.function];
        if function.params.iter().any(|p| p.id == id) {
            return true;
        }
        let Some((loc, _)) = self.module.find_result(id) else {
            return false;
        };
        if loc.function != point.function {
            return false;
        }
        if loc.block == point.block {
            return loc.index < point.index;
        }
        let dom = Dominators::compute(function);
        let def_label = function.blocks[loc.block].label;
        let use_label = function.blocks[point.block].label;
        dom.strictly_dominates(def_label, use_label)
    }

    /// Returns `true` if the value `id` is available at the *end* of block
    /// `label` of function number `function` — the availability required of
    /// phi operands for that predecessor.
    #[must_use]
    pub fn available_at_block_end(&self, function: usize, label: Id, id: Id) -> bool {
        let Some(block_index) = self.module.functions[function].block_index(label) else {
            return false;
        };
        let len = self.module.functions[function].blocks[block_index]
            .instructions
            .len();
        self.available_at(ResolvedPoint { function, block: block_index, index: len }, id)
    }

    /// Returns `true` if `point` is a legal insertion slot: not inside the
    /// phi prefix of its block.
    #[must_use]
    pub fn insertion_ok(&self, point: ResolvedPoint) -> bool {
        let block = &self.module.functions[point.function].blocks[point.block];
        point.index >= block.phi_count()
    }

    /// Returns `true` if types `a` and `b` are the same declared type.
    /// Types are interned (transformations never declare duplicates), so id
    /// equality is type equality.
    #[must_use]
    pub fn same_type(&self, a: Id, b: Id) -> bool {
        a == b
    }

    /// Returns `true` if calling `callee` could (transitively) reach
    /// `caller`, i.e. adding a `caller -> callee` edge would create a cycle.
    #[must_use]
    pub fn call_creates_cycle(&self, caller: Id, callee: Id) -> bool {
        if caller == callee {
            return true;
        }
        let mut stack = vec![callee];
        let mut seen = std::collections::HashSet::new();
        while let Some(current) = stack.pop() {
            if current == caller {
                return true;
            }
            if !seen.insert(current) {
                continue;
            }
            if let Some(f) = self.module.function(current) {
                for block in &f.blocks {
                    for inst in &block.instructions {
                        if let trx_ir::Op::Call { callee, .. } = &inst.op {
                            stack.push(*callee);
                        }
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trx_ir::ModuleBuilder;

    fn diamond_context() -> (Context, Id, Id, Id) {
        // entry -> {left, right} -> merge; a value defined in left.
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c1 = b.constant_int(1);
        let c_true = b.constant_bool(true);
        let mut f = b.begin_entry_function("main");
        let left = f.reserve_label();
        let right = f.reserve_label();
        let merge = f.reserve_label();
        f.selection_merge(merge);
        f.branch_cond(c_true, left, right);
        f.begin_block_with_label(left);
        let in_left = f.iadd(t_int, c1, c1);
        f.branch(merge);
        f.begin_block_with_label(right);
        f.branch(merge);
        f.begin_block_with_label(merge);
        let phi = f.phi(t_int, vec![(in_left, left), (c1, right)]);
        f.store_output("out", phi);
        f.ret();
        f.finish();
        let m = b.finish();
        let ctx = Context::new(m, Inputs::default()).unwrap();
        (ctx, in_left, left, merge)
    }

    #[test]
    fn invalid_module_rejected() {
        let mut b = ModuleBuilder::new();
        let c = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        f.store_output("out", c);
        f.ret();
        f.finish();
        let mut m = b.finish();
        m.id_bound = 1;
        assert!(Context::new(m, Inputs::default()).is_err());
    }

    #[test]
    fn constants_available_everywhere() {
        let (ctx, _, _, _) = diamond_context();
        let c = ctx.module.constants[0].id;
        let point = ResolvedPoint { function: 0, block: 0, index: 0 };
        assert!(ctx.available_at(point, c));
    }

    #[test]
    fn definition_not_available_in_sibling_branch() {
        let (ctx, in_left, left, merge) = diamond_context();
        let f = &ctx.module.functions[0];
        let right_index = 2;
        assert_ne!(f.blocks[right_index].label, left);
        let point = ResolvedPoint { function: 0, block: right_index, index: 0 };
        assert!(!ctx.available_at(point, in_left));
        // But it is available at the end of `left` itself.
        assert!(ctx.available_at_block_end(0, left, in_left));
        // And not at the start of merge (no strict domination).
        let merge_index = f.block_index(merge).unwrap();
        let merge_point = ResolvedPoint { function: 0, block: merge_index, index: 0 };
        assert!(!ctx.available_at(merge_point, in_left));
    }

    #[test]
    fn insertion_not_allowed_in_phi_prefix() {
        let (ctx, _, _, merge) = diamond_context();
        let merge_index = ctx.module.functions[0].block_index(merge).unwrap();
        let in_prefix = ResolvedPoint { function: 0, block: merge_index, index: 0 };
        let after_prefix = ResolvedPoint { function: 0, block: merge_index, index: 1 };
        assert!(!ctx.insertion_ok(in_prefix));
        assert!(ctx.insertion_ok(after_prefix));
    }

    #[test]
    fn freshness_check() {
        let (ctx, in_left, _, _) = diamond_context();
        let fresh = Id::new(ctx.module.id_bound);
        let fresh2 = Id::new(ctx.module.id_bound + 1);
        assert!(ctx.fresh_and_distinct(&[fresh, fresh2]));
        assert!(!ctx.fresh_and_distinct(&[fresh, fresh]));
        assert!(!ctx.fresh_and_distinct(&[in_left]));
        assert!(!ctx.fresh_and_distinct(&[Id::PLACEHOLDER]));
    }

    #[test]
    fn self_call_is_a_cycle() {
        let (ctx, _, _, _) = diamond_context();
        let entry = ctx.module.entry_point;
        assert!(ctx.call_creates_cycle(entry, entry));
    }
}
