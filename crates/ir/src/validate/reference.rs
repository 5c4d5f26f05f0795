//! The original scan-based validator, kept as the executable specification
//! that [`super::validate`] is checked against.
//!
//! Every operand lookup here is a linear scan of the module (`Module::constant`,
//! `Module::value_type`, `Function::predecessors`, …) and every id set is a
//! `HashMap`/`HashSet`, so a call costs time quadratic in module size — slow,
//! but each rule reads directly as the check it performs. The differential
//! suite (`tests/validate_equivalence.rs`) pins [`super::validate`] to this
//! one: equal results, message lists included, on valid, mutated and
//! decoded modules.

use std::collections::{BTreeSet, HashMap, HashSet};

use super::ValidationError;
use crate::cfg::Dominators;
use crate::{
    BinOp, ConstantValue, Function, Id, Module, Op, StorageClass, Terminator, Type, UnOp,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefKind {
    Type,
    Constant,
    Global,
    Function,
    Param,
    Label,
    Result,
}

struct Checker<'m> {
    module: &'m Module,
    kinds: HashMap<Id, DefKind>,
    errors: Vec<String>,
}

/// Validates `module`, returning every rule violation found.
///
/// # Errors
///
/// Returns a [`ValidationError`] describing each violated rule. A module that
/// passes is safe to interpret and safe for transformations to inspect.
pub fn validate(module: &Module) -> Result<(), ValidationError> {
    let mut checker = Checker { module, kinds: HashMap::new(), errors: Vec::new() };
    checker.check_ids();
    checker.check_types();
    checker.check_constants();
    checker.check_globals();
    checker.check_interface();
    checker.check_entry_point();
    checker.check_call_graph();
    for function in &module.functions {
        checker.check_function(function);
    }
    if checker.errors.is_empty() {
        Ok(())
    } else {
        Err(ValidationError { errors: checker.errors })
    }
}

impl Checker<'_> {
    fn err(&mut self, msg: String) {
        self.errors.push(msg);
    }

    fn declare(&mut self, id: Id, kind: DefKind) {
        if id.is_placeholder() {
            self.err("placeholder id used as a declaration".into());
            return;
        }
        if id.raw() >= self.module.id_bound {
            self.err(format!("{id} is not below the id bound {}", self.module.id_bound));
        }
        if self.kinds.insert(id, kind).is_some() {
            self.err(format!("{id} declared more than once"));
        }
    }

    fn check_ids(&mut self) {
        // Declaration pass: record the kind of every id first so later
        // checks can classify operands.
        let module = self.module;
        for d in &module.types {
            self.declare(d.id, DefKind::Type);
        }
        for c in &module.constants {
            self.declare(c.id, DefKind::Constant);
        }
        for g in &module.globals {
            self.declare(g.id, DefKind::Global);
        }
        for f in &module.functions {
            self.declare(f.id, DefKind::Function);
            for p in &f.params {
                self.declare(p.id, DefKind::Param);
            }
            for b in &f.blocks {
                self.declare(b.label, DefKind::Label);
                for inst in &b.instructions {
                    if let Some(r) = inst.result {
                        self.declare(r, DefKind::Result);
                    }
                }
            }
        }
    }

    fn type_of(&self, id: Id) -> Option<&Type> {
        self.module.type_of(id)
    }


    fn check_types(&mut self) {
        let mut seen: HashSet<Id> = HashSet::new();
        for decl in &self.module.types {
            for referenced in decl.ty.referenced_ids() {
                if !seen.contains(&referenced) {
                    self.err(format!(
                        "type {} refers to {referenced}, which is not an earlier type",
                        decl.id
                    ));
                }
            }
            match &decl.ty {
                Type::Vector { component, count } => {
                    if !(2..=4).contains(count) {
                        self.err(format!("vector {} has invalid count {count}", decl.id));
                    }
                    if !matches!(
                        self.type_of(*component),
                        Some(Type::Bool | Type::Int | Type::Float)
                    ) {
                        self.err(format!("vector {} component is not scalar", decl.id));
                    }
                }
                Type::Array { len, .. } if *len == 0 => {
                    self.err(format!("array {} has zero length", decl.id));
                }
                Type::Function { ret: _, params } => {
                    for p in params {
                        if matches!(self.type_of(*p), Some(Type::Void)) {
                            self.err(format!("function type {} has void parameter", decl.id));
                        }
                    }
                }
                _ => {}
            }
            seen.insert(decl.id);
        }
    }

    fn check_constants(&mut self) {
        let mut seen: HashSet<Id> = HashSet::new();
        for c in &self.module.constants {
            let ty = self.type_of(c.ty).cloned();
            match (&c.value, ty) {
                (_, None) => self.err(format!("constant {} has undeclared type", c.id)),
                (ConstantValue::Bool(_), Some(Type::Bool))
                | (ConstantValue::Int(_), Some(Type::Int))
                | (ConstantValue::Float(_), Some(Type::Float)) => {}
                (ConstantValue::Composite(parts), Some(ty)) => {
                    let expected: Option<Vec<Id>> = match &ty {
                        Type::Vector { component, count } => {
                            Some(vec![*component; *count as usize])
                        }
                        Type::Array { element, len } => Some(vec![*element; *len as usize]),
                        Type::Struct { members } => Some(members.clone()),
                        _ => None,
                    };
                    match expected {
                        None => self.err(format!(
                            "composite constant {} has non-composite type",
                            c.id
                        )),
                        Some(member_types) => {
                            if member_types.len() != parts.len() {
                                self.err(format!(
                                    "composite constant {} has {} parts, expected {}",
                                    c.id,
                                    parts.len(),
                                    member_types.len()
                                ));
                            } else {
                                for (part, want) in parts.iter().zip(member_types) {
                                    if !seen.contains(part) {
                                        self.err(format!(
                                            "composite constant {} part {part} is not an earlier constant",
                                            c.id
                                        ));
                                    } else if self.module.constant(*part).map(|p| p.ty)
                                        != Some(want)
                                    {
                                        self.err(format!(
                                            "composite constant {} part {part} has wrong type",
                                            c.id
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                (value, Some(ty)) => self.err(format!(
                    "constant {} value {value} does not match type {ty:?}",
                    c.id
                )),
            }
            seen.insert(c.id);
        }
    }

    fn check_globals(&mut self) {
        for g in &self.module.globals {
            match self.type_of(g.ty) {
                Some(&Type::Pointer { storage, .. }) => {
                    if storage != g.storage {
                        self.err(format!(
                            "global {} storage {} does not match pointer type {}",
                            g.id, g.storage, storage
                        ));
                    }
                    if storage == StorageClass::Function {
                        self.err(format!("global {} has Function storage", g.id));
                    }
                }
                _ => self.err(format!("global {} type is not a pointer", g.id)),
            }
            if let Some(init) = g.initializer {
                if g.storage != StorageClass::Private {
                    self.err(format!(
                        "global {} has initializer but storage {}",
                        g.id, g.storage
                    ));
                }
                let pointee = match self.type_of(g.ty) {
                    Some(&Type::Pointer { pointee, .. }) => Some(pointee),
                    _ => None,
                };
                if self.module.constant(init).map(|c| c.ty) != pointee {
                    self.err(format!("global {} initializer has wrong type", g.id));
                }
            }
        }
    }

    fn check_interface(&mut self) {
        let bindings = [
            (&self.module.interface.uniforms, StorageClass::Uniform, "uniform"),
            (&self.module.interface.builtins, StorageClass::Input, "builtin"),
            (&self.module.interface.outputs, StorageClass::Output, "output"),
        ];
        let mut errs = Vec::new();
        for (list, storage, what) in bindings {
            let mut names = HashSet::new();
            for b in list {
                if !names.insert(b.name.clone()) {
                    errs.push(format!("duplicate {what} name {:?}", b.name));
                }
                match self.module.global(b.global) {
                    Some(g) if g.storage == storage => {}
                    Some(g) => errs.push(format!(
                        "{what} {:?} bound to global {} with storage {}",
                        b.name, b.global, g.storage
                    )),
                    None => errs.push(format!(
                        "{what} {:?} bound to undeclared global {}",
                        b.name, b.global
                    )),
                }
            }
        }
        self.errors.extend(errs);
    }

    fn check_entry_point(&mut self) {
        match self.module.function(self.module.entry_point) {
            None => self.err("entry point does not name a function".into()),
            Some(f) => match self.type_of(f.ty) {
                Some(Type::Function { ret, params })
                    if params.is_empty() && matches!(self.type_of(*ret), Some(Type::Void)) => {}
                _ => self.err("entry point must be a void function with no parameters".into()),
            },
        }
    }

    fn check_call_graph(&mut self) {
        // SPIR-V forbids recursion, and the interpreter relies on it for
        // termination of live-safe calls. Detect cycles with a DFS.
        let mut edges: HashMap<Id, Vec<Id>> = HashMap::new();
        for f in &self.module.functions {
            let callees: Vec<Id> = f
                .blocks
                .iter()
                .flat_map(|b| b.instructions.iter())
                .filter_map(|i| match &i.op {
                    Op::Call { callee, .. } => Some(*callee),
                    _ => None,
                })
                .collect();
            edges.insert(f.id, callees);
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Visiting,
            Done,
        }
        let mut marks: HashMap<Id, Mark> = HashMap::new();
        let mut found_cycle = false;
        fn dfs(
            node: Id,
            edges: &HashMap<Id, Vec<Id>>,
            marks: &mut HashMap<Id, Mark>,
            found: &mut bool,
        ) {
            marks.insert(node, Mark::Visiting);
            for next in edges.get(&node).into_iter().flatten() {
                match marks.get(next) {
                    Some(Mark::Visiting) => *found = true,
                    Some(Mark::Done) => {}
                    None => dfs(*next, edges, marks, found),
                }
            }
            marks.insert(node, Mark::Done);
        }
        for f in &self.module.functions {
            if !marks.contains_key(&f.id) {
                dfs(f.id, &edges, &mut marks, &mut found_cycle);
            }
        }
        if found_cycle {
            self.err("call graph contains a cycle (recursion is not allowed)".into());
        }
    }

    fn value_kind_ok(&self, id: Id) -> bool {
        matches!(
            self.kinds.get(&id),
            Some(DefKind::Constant | DefKind::Global | DefKind::Param | DefKind::Result)
        )
    }

    fn check_function(&mut self, f: &Function) {
        if f.blocks.is_empty() {
            self.err(format!("function {} has no blocks", f.id));
            return;
        }
        match self.type_of(f.ty).cloned() {
            Some(Type::Function { params, .. }) => {
                if params.len() != f.params.len() {
                    self.err(format!(
                        "function {} has {} params but type lists {}",
                        f.id,
                        f.params.len(),
                        params.len()
                    ));
                } else {
                    for (p, want) in f.params.iter().zip(params) {
                        if p.ty != want {
                            self.err(format!(
                                "function {} param {} type mismatch",
                                f.id, p.id
                            ));
                        }
                    }
                }
            }
            _ => self.err(format!("function {} type is not a function type", f.id)),
        }

        let labels: HashSet<Id> = f.blocks.iter().map(|b| b.label).collect();
        let dom = Dominators::compute(f);
        let entry = f.entry_label();

        // Dominance-compatible syntactic order: every reachable non-entry
        // block must appear after its immediate dominator.
        for (i, b) in f.blocks.iter().enumerate() {
            if let Some(idom) = dom.idom(b.label) {
                let idom_index = f.block_index(idom).unwrap_or(usize::MAX);
                if idom_index >= i {
                    self.err(format!(
                        "block {} appears before its dominator {}",
                        b.label, idom
                    ));
                }
            }
        }

        // Map each result id to its defining block and index so dominance
        // checks can locate definitions.
        let mut def_site: HashMap<Id, (Id, usize)> = HashMap::new();
        for b in &f.blocks {
            for (i, inst) in b.instructions.iter().enumerate() {
                if let Some(r) = inst.result {
                    def_site.insert(r, (b.label, i));
                }
            }
        }

        let local_params: HashSet<Id> = f.params.iter().map(|p| p.id).collect();

        let available = |this: &Self,
                         use_block: Id,
                         use_index: usize,
                         id: Id|
         -> Result<(), String> {
            if this.module.constant(id).is_some()
                || this.module.global(id).is_some()
                || local_params.contains(&id)
            {
                return Ok(());
            }
            match def_site.get(&id) {
                None => Err(format!("{id} is not available in function {}", f.id)),
                Some(&(def_block, def_index)) => {
                    // Be lenient inside unreachable blocks: SPIR-V tools
                    // accept various layouts there and nothing executes them.
                    if !dom.is_reachable(use_block) {
                        return Ok(());
                    }
                    if def_block == use_block {
                        if def_index < use_index {
                            Ok(())
                        } else {
                            Err(format!("{id} used at or before its definition"))
                        }
                    } else if dom.strictly_dominates(def_block, use_block) {
                        Ok(())
                    } else {
                        Err(format!(
                            "definition of {id} in {def_block} does not dominate use in {use_block}"
                        ))
                    }
                }
            }
        };

        for b in &f.blocks {
            // Phis must be a prefix.
            let phi_count = b.phi_count();
            for (i, inst) in b.instructions.iter().enumerate() {
                if inst.is_phi() && i >= phi_count {
                    self.err(format!("phi after non-phi in block {}", b.label));
                }
            }

            let preds: BTreeSet<Id> = f.predecessors(b.label).into_iter().collect();
            if b.label == entry && !preds.is_empty() {
                self.err(format!("entry block {} has predecessors", b.label));
            }

            for (i, inst) in b.instructions.iter().enumerate() {
                // Kind sanity for operands, then op-specific typing.
                let mut operand_errors = Vec::new();
                if let Op::Phi { incoming } = &inst.op {
                    let mut seen_preds = HashSet::new();
                    for (value, pred) in incoming {
                        if !labels.contains(pred) {
                            operand_errors
                                .push(format!("phi in {} names unknown block {pred}", b.label));
                        } else if !seen_preds.insert(*pred) {
                            operand_errors
                                .push(format!("phi in {} repeats predecessor {pred}", b.label));
                        }
                        // Value must be available at the end of the
                        // predecessor.
                        if let Some(pred_block) = f.block(*pred) {
                            let end = pred_block.instructions.len();
                            if let Err(e) = available(self, *pred, end, *value) {
                                operand_errors.push(format!("phi operand: {e}"));
                            }
                        }
                    }
                    if dom.is_reachable(b.label) {
                        let named: BTreeSet<Id> =
                            incoming.iter().map(|(_, pred)| *pred).collect();
                        if named != preds {
                            operand_errors.push(format!(
                                "phi in {} covers {named:?} but predecessors are {preds:?}",
                                b.label
                            ));
                        }
                    }
                } else {
                    inst.op.for_each_id_operand(|id| {
                        if let Op::Call { callee, .. } = &inst.op {
                            if *callee == id {
                                if !matches!(self.kinds.get(&id), Some(DefKind::Function)) {
                                    operand_errors.push(format!("callee {id} is not a function"));
                                }
                                return;
                            }
                        }
                        if !self.value_kind_ok(id) {
                            operand_errors.push(format!(
                                "operand {id} of {} in {} is not a value",
                                inst.op.mnemonic(),
                                b.label
                            ));
                        } else if let Err(e) = available(self, b.label, i, id) {
                            operand_errors.push(e);
                        }
                    });
                }
                self.errors.extend(operand_errors);
                self.check_instruction_types(f, b.label, inst);

                if inst.is_variable() {
                    if b.label != entry {
                        self.err(format!(
                            "variable {} outside the entry block",
                            inst.result.map_or_else(|| "<none>".into(), |r| r.to_string())
                        ));
                    }
                    if let Op::Variable { initializer: Some(init), .. } = &inst.op {
                        if self.module.constant(*init).is_none() {
                            self.err("variable initializer must be a constant".into());
                        }
                    }
                }
            }

            // Terminator checks.
            for target in b.terminator.targets() {
                if !labels.contains(&target) {
                    self.err(format!("{} branches to unknown block {target}", b.label));
                } else if target == entry {
                    self.err(format!("{} branches to the entry block", b.label));
                }
            }
            for id in b.terminator.id_operands() {
                if !self.value_kind_ok(id) {
                    self.err(format!("terminator operand {id} in {} is not a value", b.label));
                } else if let Err(e) =
                    available(self, b.label, b.instructions.len(), id)
                {
                    self.err(e);
                }
            }
            match &b.terminator {
                Terminator::BranchConditional { cond, true_target, false_target } => {
                    if self
                        .module
                        .value_type(*cond)
                        .and_then(|t| self.type_of(t))
                        .is_some_and(|t| *t != Type::Bool)
                    {
                        self.err(format!("condition {cond} in {} is not boolean", b.label));
                    }
                    if true_target != false_target && b.merge.is_none() {
                        self.err(format!(
                            "block {} has a conditional branch but no merge annotation",
                            b.label
                        ));
                    }
                }
                Terminator::Return => {
                    if let Some(Type::Function { ret, .. }) = self.type_of(f.ty) {
                        if !matches!(self.type_of(*ret), Some(Type::Void)) {
                            self.err(format!(
                                "OpReturn in non-void function {} (block {})",
                                f.id, b.label
                            ));
                        }
                    }
                }
                Terminator::ReturnValue { value } => {
                    if let Some(Type::Function { ret, .. }) = self.type_of(f.ty).cloned() {
                        if self.module.value_type(*value) != Some(ret) {
                            self.err(format!(
                                "OpReturnValue type mismatch in function {} (block {})",
                                f.id, b.label
                            ));
                        }
                    }
                }
                _ => {}
            }
            if let Some(merge) = b.merge {
                for label in merge.referenced_labels() {
                    if !labels.contains(&label) {
                        self.err(format!(
                            "merge annotation on {} names unknown block {label}",
                            b.label
                        ));
                    }
                }
            }
        }
    }

    fn check_instruction_types(&mut self, f: &Function, block: Id, inst: &crate::Instruction) {
        let vt = |this: &Self, id: Id| -> Option<Type> {
            this.module
                .value_type(id)
                .and_then(|t| this.type_of(t))
                .cloned()
        };
        let result_ty = inst.ty.and_then(|t| self.type_of(t)).cloned();
        let mut errs = Vec::new();
        match &inst.op {
            Op::Binary { op, lhs, rhs } => {
                let lt = vt(self, *lhs);
                let rt = vt(self, *rhs);
                if lt.is_some() && rt.is_some() && lt != rt {
                    errs.push(format!(
                        "{} in {block}: operand types differ",
                        op.mnemonic()
                    ));
                }
                if op.is_comparison() {
                    if result_ty.is_some() && result_ty != Some(Type::Bool) {
                        errs.push(format!(
                            "{} in {block}: comparison result must be bool",
                            op.mnemonic()
                        ));
                    }
                } else if result_ty.is_some() && lt.is_some() && result_ty != lt {
                    errs.push(format!(
                        "{} in {block}: result type differs from operands",
                        op.mnemonic()
                    ));
                }
                let want = match op {
                    BinOp::FAdd
                    | BinOp::FSub
                    | BinOp::FMul
                    | BinOp::FDiv
                    | BinOp::FOrdEqual
                    | BinOp::FOrdNotEqual
                    | BinOp::FOrdLessThan
                    | BinOp::FOrdLessThanEqual
                    | BinOp::FOrdGreaterThan
                    | BinOp::FOrdGreaterThanEqual => Some(Type::Float),
                    BinOp::LogicalAnd | BinOp::LogicalOr => Some(Type::Bool),
                    _ => Some(Type::Int),
                };
                if let (Some(have), Some(want)) = (lt, want) {
                    if have != want {
                        errs.push(format!(
                            "{} in {block}: operands must be {want:?}",
                            op.mnemonic()
                        ));
                    }
                }
            }
            Op::Unary { op, src } => {
                let st = vt(self, *src);
                let (want_src, want_res) = match op {
                    UnOp::SNegate | UnOp::BitNot => (Type::Int, Type::Int),
                    UnOp::FNegate => (Type::Float, Type::Float),
                    UnOp::LogicalNot => (Type::Bool, Type::Bool),
                    UnOp::ConvertSToF => (Type::Int, Type::Float),
                    UnOp::ConvertFToS => (Type::Float, Type::Int),
                };
                if st.is_some() && st != Some(want_src.clone()) {
                    errs.push(format!("{} in {block}: operand must be {want_src:?}", op.mnemonic()));
                }
                if result_ty.is_some() && result_ty != Some(want_res.clone()) {
                    errs.push(format!("{} in {block}: result must be {want_res:?}", op.mnemonic()));
                }
            }
            Op::Select { cond, if_true, if_false } => {
                if vt(self, *cond).is_some_and(|t| t != Type::Bool) {
                    errs.push(format!("OpSelect in {block}: condition must be bool"));
                }
                let tt = self.module.value_type(*if_true);
                let ft = self.module.value_type(*if_false);
                if tt.is_some() && ft.is_some() && tt != ft {
                    errs.push(format!("OpSelect in {block}: branch types differ"));
                }
                if inst.ty.is_some() && tt.is_some() && inst.ty != tt {
                    errs.push(format!("OpSelect in {block}: result type mismatch"));
                }
            }
            Op::CompositeConstruct { parts } => match result_ty {
                Some(Type::Vector { component, count }) => {
                    if parts.len() != count as usize {
                        errs.push(format!("OpCompositeConstruct in {block}: arity mismatch"));
                    }
                    for p in parts {
                        if self.module.value_type(*p) != Some(component) {
                            errs.push(format!(
                                "OpCompositeConstruct in {block}: component type mismatch"
                            ));
                        }
                    }
                }
                Some(Type::Array { element, len }) => {
                    if parts.len() != len as usize {
                        errs.push(format!("OpCompositeConstruct in {block}: arity mismatch"));
                    }
                    for p in parts {
                        if self.module.value_type(*p) != Some(element) {
                            errs.push(format!(
                                "OpCompositeConstruct in {block}: element type mismatch"
                            ));
                        }
                    }
                }
                Some(Type::Struct { members }) => {
                    if parts.len() != members.len() {
                        errs.push(format!("OpCompositeConstruct in {block}: arity mismatch"));
                    } else {
                        for (p, want) in parts.iter().zip(members) {
                            if self.module.value_type(*p) != Some(want) {
                                errs.push(format!(
                                    "OpCompositeConstruct in {block}: member type mismatch"
                                ));
                            }
                        }
                    }
                }
                _ => errs.push(format!(
                    "OpCompositeConstruct in {block}: result is not composite"
                )),
            },
            Op::CompositeExtract { composite, indices } => {
                if let Some(start) = self.module.value_type(*composite) {
                    match self.walk_path(start, indices) {
                        Ok(end) => {
                            if inst.ty != Some(end) {
                                errs.push(format!(
                                    "OpCompositeExtract in {block}: result type mismatch"
                                ));
                            }
                        }
                        Err(e) => errs.push(format!("OpCompositeExtract in {block}: {e}")),
                    }
                }
            }
            Op::CompositeInsert { object, composite, indices } => {
                if let Some(start) = self.module.value_type(*composite) {
                    match self.walk_path(start, indices) {
                        Ok(end) => {
                            if self.module.value_type(*object) != Some(end) {
                                errs.push(format!(
                                    "OpCompositeInsert in {block}: object type mismatch"
                                ));
                            }
                        }
                        Err(e) => errs.push(format!("OpCompositeInsert in {block}: {e}")),
                    }
                    if inst.ty != Some(start) {
                        errs.push(format!(
                            "OpCompositeInsert in {block}: result type must match composite"
                        ));
                    }
                }
            }
            Op::AccessChain { base, indices } => {
                let base_ty = self.module.value_type(*base).and_then(|t| self.type_of(t));
                if let Some(&Type::Pointer { storage, pointee }) = base_ty {
                    let mut current = pointee;
                    let mut ok = true;
                    for idx in indices {
                        if vt(self, *idx).is_some_and(|t| t != Type::Int) {
                            errs.push(format!("OpAccessChain in {block}: index must be int"));
                        }
                        current = match self.type_of(current) {
                            Some(Type::Vector { component, .. }) => *component,
                            Some(Type::Array { element, .. }) => *element,
                            Some(Type::Struct { members }) => {
                                match self
                                    .module
                                    .constant(*idx)
                                    .and_then(|c| c.value.as_int())
                                    .and_then(|i| usize::try_from(i).ok())
                                    .and_then(|i| members.get(i).copied())
                                {
                                    Some(m) => m,
                                    None => {
                                        errs.push(format!(
                                            "OpAccessChain in {block}: struct index must be a constant in range"
                                        ));
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                            _ => {
                                errs.push(format!(
                                    "OpAccessChain in {block}: cannot index non-composite"
                                ));
                                ok = false;
                                break;
                            }
                        };
                    }
                    if ok {
                        let want = Type::Pointer { storage, pointee: current };
                        if inst.ty.and_then(|t| self.type_of(t)) != Some(&want) {
                            errs.push(format!("OpAccessChain in {block}: result type mismatch"));
                        }
                    }
                } else {
                    errs.push(format!("OpAccessChain in {block}: base is not a pointer"));
                }
            }
            Op::Load { pointer } => {
                match self.module.value_type(*pointer).and_then(|t| self.type_of(t)) {
                    Some(&Type::Pointer { pointee, .. }) => {
                        if inst.ty != Some(pointee) {
                            errs.push(format!("OpLoad in {block}: result type mismatch"));
                        }
                    }
                    _ => errs.push(format!("OpLoad in {block}: operand is not a pointer")),
                }
            }
            Op::Store { pointer, value } => {
                match self.module.value_type(*pointer).and_then(|t| self.type_of(t)) {
                    Some(&Type::Pointer { storage, pointee }) => {
                        if !storage.is_writable() {
                            errs.push(format!(
                                "OpStore in {block}: storage class {storage} is read-only"
                            ));
                        }
                        if self.module.value_type(*value) != Some(pointee) {
                            errs.push(format!("OpStore in {block}: value type mismatch"));
                        }
                    }
                    _ => errs.push(format!("OpStore in {block}: operand is not a pointer")),
                }
            }
            Op::Call { callee, args } => {
                if let Some(callee_fn) = self.module.function(*callee) {
                    if let Some(Type::Function { ret, params }) =
                        self.type_of(callee_fn.ty).cloned()
                    {
                        if inst.ty != Some(ret) {
                            errs.push(format!("OpFunctionCall in {block}: result type mismatch"));
                        }
                        if args.len() != params.len() {
                            errs.push(format!("OpFunctionCall in {block}: arity mismatch"));
                        } else {
                            for (a, want) in args.iter().zip(params) {
                                if self.module.value_type(*a) != Some(want) {
                                    errs.push(format!(
                                        "OpFunctionCall in {block}: argument type mismatch"
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            Op::Phi { incoming } => {
                // Logical addressing: values selected by phis must be data,
                // not pointers.
                if matches!(result_ty, Some(Type::Pointer { .. })) {
                    errs.push(format!("OpPhi in {block}: pointers cannot be phi results"));
                }
                for (value, _) in incoming {
                    if self.module.value_type(*value) != inst.ty {
                        errs.push(format!("OpPhi in {block}: incoming value type mismatch"));
                    }
                }
            }
            Op::Variable { storage, .. } => {
                match inst.ty.and_then(|t| self.type_of(t)) {
                    Some(Type::Pointer { storage: ptr_storage, .. }) => {
                        if ptr_storage != storage {
                            errs.push(format!(
                                "OpVariable in {block}: storage class mismatch"
                            ));
                        }
                    }
                    _ => errs.push(format!("OpVariable in {block}: type must be a pointer")),
                }
                if *storage != StorageClass::Function {
                    errs.push(format!(
                        "OpVariable in {block}: function-body variables must use Function storage"
                    ));
                }
            }
            Op::Undef | Op::CopyObject { .. } | Op::Nop => {
                // Undef values must be data: an undefined pointer has no
                // meaningful cell to refer to.
                if matches!(inst.op, Op::Undef)
                    && !result_ty
                        .as_ref()
                        .is_some_and(|t| t.is_scalar() || t.is_composite())
                {
                    errs.push(format!("OpUndef in {block}: type must be a data type"));
                }
                if let Op::CopyObject { src } = &inst.op {
                    if self.module.value_type(*src) != inst.ty {
                        errs.push(format!("OpCopyObject in {block}: type mismatch"));
                    }
                }
            }
        }
        let _ = f;
        self.errors.extend(errs);
    }

    /// Walks a literal index path from the type `start`, returning the type
    /// at the end of the path.
    fn walk_path(&self, start: Id, indices: &[u32]) -> Result<Id, String> {
        let mut current = start;
        for &idx in indices {
            current = match self.type_of(current) {
                Some(Type::Vector { component, count }) => {
                    if idx >= *count {
                        return Err(format!("index {idx} out of range for vector"));
                    }
                    *component
                }
                Some(Type::Array { element, len }) => {
                    if idx >= *len {
                        return Err(format!("index {idx} out of range for array"));
                    }
                    *element
                }
                Some(Type::Struct { members }) => members
                    .get(idx as usize)
                    .copied()
                    .ok_or_else(|| format!("index {idx} out of range for struct"))?,
                _ => return Err("cannot index into non-composite".into()),
            };
        }
        Ok(current)
    }
}
