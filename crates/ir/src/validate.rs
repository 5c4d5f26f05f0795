//! Module validation: id uniqueness, type/constant well-formedness, SSA
//! dominance rules, structured control flow and call-graph acyclicity.
//!
//! The transformation engine validates after every applied transformation in
//! debug builds; a validation failure there indicates a broken `Effect`, not
//! a compiler-under-test bug.
//!
//! Nine transformation kinds also decide their precondition by applying
//! themselves to a clone and validating the result, so [`validate`] runs on
//! nearly every reducer probe. It answers every lookup from tables built once
//! per call rather than by scanning the module: an id table recording each
//! id's declaring kind, value type, and type, constant, global or function
//! declaration, and per function a label index, predecessor sets and
//! definition sites. The id table is the sorted list of declared ids, looked
//! up by binary search, so a call costs O(n log n) in the module's size and
//! its memory stays O(module) whatever ids and id bound the module carries
//! (a decoded module may carry any).
//! [`reference`](mod@reference) keeps the original scan-based checker;
//! `tests/validate_equivalence.rs` pins the two to equal results, messages
//! included.

use std::collections::{BTreeSet, HashSet};
use std::error::Error;
use std::fmt;

use crate::cfg::Dominators;
use crate::{
    BinOp, ConstantDecl, ConstantValue, Function, GlobalVariable, Id, Module, Op, StorageClass,
    Terminator, Type, UnOp,
};

pub mod reference;

/// A validation failure, carrying every rule violation found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    errors: Vec<String>,
}

impl ValidationError {
    /// The individual rule violations.
    #[must_use]
    pub fn messages(&self) -> &[String] {
        &self.errors
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid module: {}", self.errors.join("; "))
    }
}

impl Error for ValidationError {}

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

/// One declaration of an id, as [`for_each_declaration`] visits it.
#[derive(Clone, Copy)]
enum Decl {
    Type(u32),
    Constant(u32),
    Global(u32),
    Function(u32),
    /// A function parameter, with its type.
    Param(Id),
    Label,
    /// An instruction result, with its type.
    Result(Option<Id>),
}

impl Decl {
    fn kind(self) -> DefKind {
        match self {
            Decl::Type(_) => DefKind::Type,
            Decl::Constant(_) => DefKind::Constant,
            Decl::Global(_) => DefKind::Global,
            Decl::Function(_) => DefKind::Function,
            Decl::Param(_) => DefKind::Param,
            Decl::Label => DefKind::Label,
            Decl::Result(_) => DefKind::Result,
        }
    }
}

/// `i` as a table index. Tables hold `u32` indexes to stay small.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 entries")
}

/// Visits every declaration in module order: types, constants, globals,
/// then each function's id, parameters, block labels and results. Indexes
/// are positions in the module's declaration lists.
fn for_each_declaration(module: &Module, mut visit: impl FnMut(Id, Decl)) {
    for (i, d) in module.types.iter().enumerate() {
        visit(d.id, Decl::Type(index(i)));
    }
    for (i, c) in module.constants.iter().enumerate() {
        visit(c.id, Decl::Constant(index(i)));
    }
    for (i, g) in module.globals.iter().enumerate() {
        visit(g.id, Decl::Global(index(i)));
    }
    for (i, f) in module.functions.iter().enumerate() {
        visit(f.id, Decl::Function(index(i)));
        for p in &f.params {
            visit(p.id, Decl::Param(p.ty));
        }
        for b in &f.blocks {
            visit(b.label, Decl::Label);
            for inst in &b.instructions {
                if let Some(r) = inst.result {
                    visit(r, Decl::Result(inst.ty));
                }
            }
        }
    }
}

/// What the checks ask about one id, folded from all of its declarations.
///
/// Lookups answer as the `Module` scans do (`Module::constant` and the like
/// return the first match), so modules that declare an id twice report
/// exactly what [`reference`](mod@reference) reports.
#[derive(Clone, Copy, Default)]
struct IdInfo {
    /// Kind of the last declaration; `None` for the placeholder id, which
    /// never counts as declared.
    kind: Option<DefKind>,
    ty: Option<u32>,
    constant: Option<u32>,
    global: Option<u32>,
    function: Option<u32>,
    /// The last function with this id, whose calls the call graph keeps.
    callee: Option<u32>,
    /// `Module::value_type`: a constant's or else a global's type, else the
    /// first parameter's, else the first result's.
    value_type: Option<Id>,
    /// Which of those `value_type` came from, ranked as listed: 3 for a
    /// constant or global, 2 for a parameter, 1 for a result, 0 for none.
    value_rank: u8,
    /// `block` and `local` describe function number `scope - 1`.
    scope: u32,
    /// The first block of that function carrying this label.
    block: Option<u32>,
    /// This id as a parameter or result of that function.
    local: Option<Local>,
}

/// Where a function-local value comes from. A parameter shadows a result,
/// and the last of several results with one id wins.
#[derive(Clone, Copy)]
enum Local {
    Param,
    /// Defined by instruction `index` of the block labelled `block`.
    Result { block: Id, index: u32 },
}

/// Every declared id with its [`IdInfo`].
struct IdTable {
    /// The distinct declared ids, sorted; an id's entry is its position.
    ids: Vec<Id>,
    info: Vec<IdInfo>,
}

impl IdTable {
    /// Builds the table, reporting declaration errors in declaration order.
    fn build(module: &Module, errors: &mut Vec<String>) -> Self {
        let mut ids = Vec::new();
        for_each_declaration(module, |id, _| ids.push(id));
        ids.sort_unstable();
        ids.dedup();
        let mut table = IdTable { info: vec![IdInfo::default(); ids.len()], ids };
        for_each_declaration(module, |id, decl| {
            let info = table.entry(id);
            if id.is_placeholder() {
                errors.push("placeholder id used as a declaration".into());
            } else {
                if id.raw() >= module.id_bound {
                    errors.push(format!("{id} is not below the id bound {}", module.id_bound));
                }
                if info.kind.replace(decl.kind()).is_some() {
                    errors.push(format!("{id} declared more than once"));
                }
            }
            let (value_type, rank) = match decl {
                Decl::Type(i) => {
                    info.ty.get_or_insert(i);
                    return;
                }
                Decl::Constant(i) => {
                    info.constant.get_or_insert(i);
                    (Some(module.constants[i as usize].ty), 3)
                }
                Decl::Global(i) => {
                    info.global.get_or_insert(i);
                    (Some(module.globals[i as usize].ty), 3)
                }
                Decl::Function(i) => {
                    info.function.get_or_insert(i);
                    info.callee = Some(i);
                    return;
                }
                Decl::Param(ty) => (Some(ty), 2),
                Decl::Label => return,
                Decl::Result(ty) => (ty, 1),
            };
            // The first declaration of the highest rank wins; constants are
            // visited before globals, so a constant beats a global.
            if rank > info.value_rank {
                info.value_type = value_type;
                info.value_rank = rank;
            }
        });
        table
    }

    fn get(&self, id: Id) -> Option<&IdInfo> {
        self.ids.binary_search(&id).ok().map(|slot| &self.info[slot])
    }

    /// The entry of declared `id`.
    fn entry(&mut self, id: Id) -> &mut IdInfo {
        let slot = self.ids.binary_search(&id).expect("every declared id is in the table");
        &mut self.info[slot]
    }

    /// The entry of declared `id` as seen from function `scope`.
    fn scoped(&mut self, id: Id, scope: u32) -> &mut IdInfo {
        let info = self.entry(id);
        if info.scope != scope {
            info.scope = scope;
            info.block = None;
            info.local = None;
        }
        info
    }
}

struct Checker<'m> {
    module: &'m Module,
    ids: IdTable,
    errors: Vec<String>,
    /// The function being checked, as [`IdInfo::scope`] numbers it.
    scope: u32,
    /// Its distinct `(label, predecessor label)` pairs, sorted.
    preds: Vec<(Id, Id)>,
    /// A phi's `(predecessor, position)` pairs, sorted.
    phi_preds: Vec<(Id, usize)>,
}

/// Validates `module`, returning every rule violation found.
///
/// # Errors
///
/// Returns a [`ValidationError`] describing each violated rule. A module that
/// passes is safe to interpret and safe for transformations to inspect.
pub fn validate(module: &Module) -> Result<(), ValidationError> {
    let mut errors = Vec::new();
    let ids = IdTable::build(module, &mut errors);
    let mut checker =
        Checker { module, ids, errors, scope: 0, preds: Vec::new(), phi_preds: Vec::new() };
    checker.check_types();
    checker.check_constants();
    checker.check_globals();
    checker.check_interface();
    checker.check_entry_point();
    checker.check_call_graph();
    for (position, function) in module.functions.iter().enumerate() {
        checker.check_function(position, function);
    }
    if checker.errors.is_empty() {
        Ok(())
    } else {
        Err(ValidationError { errors: checker.errors })
    }
}

/// The callees of every call in `f`, in instruction order.
fn callees(f: &Function) -> impl Iterator<Item = Id> + '_ {
    f.instructions().filter_map(|inst| match &inst.op {
        Op::Call { callee, .. } => Some(*callee),
        _ => None,
    })
}

impl<'m> Checker<'m> {
    fn err(&mut self, msg: String) {
        self.errors.push(msg);
    }

    fn kind(&self, id: Id) -> Option<DefKind> {
        self.ids.get(id).and_then(|d| d.kind)
    }

    fn type_of(&self, id: Id) -> Option<&'m Type> {
        let module = self.module;
        self.ids.get(id)?.ty.map(|i| &module.types[i as usize].ty)
    }

    fn constant(&self, id: Id) -> Option<&'m ConstantDecl> {
        let module = self.module;
        self.ids.get(id)?.constant.map(|i| &module.constants[i as usize])
    }

    fn global(&self, id: Id) -> Option<&'m GlobalVariable> {
        let module = self.module;
        self.ids.get(id)?.global.map(|i| &module.globals[i as usize])
    }

    fn function(&self, id: Id) -> Option<&'m Function> {
        let module = self.module;
        self.ids.get(id)?.function.map(|i| &module.functions[i as usize])
    }

    fn value_type(&self, id: Id) -> Option<Id> {
        self.ids.get(id)?.value_type
    }

    /// The type of the value `id`, resolved to its declaration.
    fn value_type_decl(&self, id: Id) -> Option<&'m Type> {
        self.value_type(id).and_then(|t| self.type_of(t))
    }

    /// Returns `true` if a type declared before position `before` has id
    /// `id`.
    fn earlier_type(&self, id: Id, before: usize) -> bool {
        self.ids.get(id).and_then(|d| d.ty).is_some_and(|first| (first as usize) < before)
    }

    fn check_types(&mut self) {
        let module = self.module;
        for (position, decl) in module.types.iter().enumerate() {
            for referenced in decl.ty.referenced_ids() {
                if !self.earlier_type(referenced, position) {
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
        }
    }

    fn check_constants(&mut self) {
        let module = self.module;
        for (position, c) in module.constants.iter().enumerate() {
            match (&c.value, self.type_of(c.ty)) {
                (_, None) => self.err(format!("constant {} has undeclared type", c.id)),
                (ConstantValue::Bool(_), Some(Type::Bool))
                | (ConstantValue::Int(_), Some(Type::Int))
                | (ConstantValue::Float(_), Some(Type::Float)) => {}
                (ConstantValue::Composite(parts), Some(ty)) => {
                    // Member `i` has type `uniform`, or else `listed[i]`.
                    let (count, uniform, listed): (usize, Option<Id>, &[Id]) = match ty {
                        Type::Vector { component, count } => {
                            (*count as usize, Some(*component), &[])
                        }
                        Type::Array { element, len } => (*len as usize, Some(*element), &[]),
                        Type::Struct { members } => (members.len(), None, members),
                        _ => {
                            self.err(format!(
                                "composite constant {} has non-composite type",
                                c.id
                            ));
                            continue;
                        }
                    };
                    if count != parts.len() {
                        self.err(format!(
                            "composite constant {} has {} parts, expected {}",
                            c.id,
                            parts.len(),
                            count
                        ));
                        continue;
                    }
                    for (i, part) in parts.iter().enumerate() {
                        let want = uniform.unwrap_or_else(|| listed[i]);
                        let earlier = self
                            .ids
                            .get(*part)
                            .and_then(|d| d.constant)
                            .is_some_and(|first| (first as usize) < position);
                        if !earlier {
                            self.err(format!(
                                "composite constant {} part {part} is not an earlier constant",
                                c.id
                            ));
                        } else if self.constant(*part).map(|p| p.ty) != Some(want) {
                            self.err(format!(
                                "composite constant {} part {part} has wrong type",
                                c.id
                            ));
                        }
                    }
                }
                (value, Some(ty)) => self.err(format!(
                    "constant {} value {value} does not match type {ty:?}",
                    c.id
                )),
            }
        }
    }

    fn check_globals(&mut self) {
        let module = self.module;
        for g in &module.globals {
            let pointer = self.type_of(g.ty);
            match pointer {
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
                let pointee = match pointer {
                    Some(&Type::Pointer { pointee, .. }) => Some(pointee),
                    _ => None,
                };
                if self.constant(init).map(|c| c.ty) != pointee {
                    self.err(format!("global {} initializer has wrong type", g.id));
                }
            }
        }
    }

    fn check_interface(&mut self) {
        let module = self.module;
        let bindings = [
            (&module.interface.uniforms, StorageClass::Uniform, "uniform"),
            (&module.interface.builtins, StorageClass::Input, "builtin"),
            (&module.interface.outputs, StorageClass::Output, "output"),
        ];
        for (list, storage, what) in bindings {
            let mut names = HashSet::new();
            for b in list {
                if !names.insert(b.name.as_str()) {
                    self.err(format!("duplicate {what} name {:?}", b.name));
                }
                match self.global(b.global) {
                    Some(g) if g.storage == storage => {}
                    Some(g) => self.err(format!(
                        "{what} {:?} bound to global {} with storage {}",
                        b.name, b.global, g.storage
                    )),
                    None => self.err(format!(
                        "{what} {:?} bound to undeclared global {}",
                        b.name, b.global
                    )),
                }
            }
        }
    }

    fn check_entry_point(&mut self) {
        match self.function(self.module.entry_point) {
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
        // termination of live-safe calls. Each function id is one node whose
        // edges are the calls of the last function declaring it; look for a
        // cycle with an iterative depth-first search over those nodes.
        const UNSEEN: u8 = 0;
        const VISITING: u8 = 1;
        const DONE: u8 = 2;
        let module = self.module;
        let functions = &module.functions;
        let node = |id: Id| self.ids.get(id).and_then(|d| d.callee).map(|i| i as usize);
        let mut state = vec![UNSEEN; functions.len()];
        let mut stack = Vec::new();
        let mut found_cycle = false;
        'roots: for (root, f) in functions.iter().enumerate() {
            if node(f.id) != Some(root) || state[root] != UNSEEN {
                continue;
            }
            state[root] = VISITING;
            stack.push((root, callees(f)));
            while let Some((current, calls)) = stack.last_mut() {
                let current = *current;
                match calls.next() {
                    None => {
                        state[current] = DONE;
                        stack.pop();
                    }
                    Some(callee) => match node(callee) {
                        Some(next) if state[next] == VISITING => {
                            found_cycle = true;
                            break 'roots;
                        }
                        Some(next) if state[next] == UNSEEN => {
                            state[next] = VISITING;
                            stack.push((next, callees(&functions[next])));
                        }
                        _ => {}
                    },
                }
            }
        }
        if found_cycle {
            self.err("call graph contains a cycle (recursion is not allowed)".into());
        }
    }

    fn value_kind_ok(&self, id: Id) -> bool {
        matches!(
            self.kind(id),
            Some(DefKind::Constant | DefKind::Global | DefKind::Param | DefKind::Result)
        )
    }

    /// Fills the per-function tables for `f`, function number `position`.
    fn enter_function(&mut self, position: usize, f: &Function) {
        self.scope = index(position + 1);
        for p in &f.params {
            self.ids.scoped(p.id, self.scope).local = Some(Local::Param);
        }
        for (i, b) in f.blocks.iter().enumerate() {
            self.ids.scoped(b.label, self.scope).block.get_or_insert(index(i));
            for (i, inst) in b.instructions.iter().enumerate() {
                if let Some(r) = inst.result {
                    let info = self.ids.scoped(r, self.scope);
                    if !matches!(info.local, Some(Local::Param)) {
                        info.local = Some(Local::Result { block: b.label, index: index(i) });
                    }
                }
            }
        }

        self.preds.clear();
        for b in &f.blocks {
            self.preds.extend(b.terminator.targets().map(|target| (target, b.label)));
        }
        self.preds.sort_unstable();
        self.preds.dedup();
    }

    /// The index of the first block labelled `label` in the function.
    fn block_index(&self, label: Id) -> Option<usize> {
        let block = self.ids.get(label).filter(|d| d.scope == self.scope)?.block?;
        Some(block as usize)
    }

    fn has_label(&self, label: Id) -> bool {
        self.block_index(label).is_some()
    }

    /// The distinct predecessor labels of the blocks labelled `label`, as
    /// sorted `(label, predecessor)` pairs.
    fn preds_of(&self, label: Id) -> &[(Id, Id)] {
        let start = self.preds.partition_point(|&(target, _)| target < label);
        let len = self.preds[start..].partition_point(|&(target, _)| target == label);
        &self.preds[start..start + len]
    }

    /// Whether `id` is available to instruction slot `use_index` of block
    /// `use_block` in `f`.
    fn available(
        &self,
        f: &Function,
        dom: &Dominators,
        use_block: Id,
        use_index: usize,
        id: Id,
    ) -> Result<(), String> {
        let info = self.ids.get(id);
        if info.is_some_and(|d| d.constant.is_some() || d.global.is_some()) {
            return Ok(());
        }
        match info.filter(|d| d.scope == self.scope).and_then(|d| d.local) {
            Some(Local::Param) => Ok(()),
            None => Err(format!("{id} is not available in function {}", f.id)),
            Some(Local::Result { block: def_block, index: def_index }) => {
                // Be lenient inside unreachable blocks: SPIR-V tools
                // accept various layouts there and nothing executes them.
                if !dom.is_reachable(use_block) {
                    return Ok(());
                }
                if def_block == use_block {
                    if (def_index as usize) < use_index {
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
    }

    fn check_function(&mut self, position: usize, f: &'m Function) {
        if f.blocks.is_empty() {
            self.err(format!("function {} has no blocks", f.id));
            return;
        }
        match self.type_of(f.ty) {
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
                        if p.ty != *want {
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

        self.enter_function(position, f);
        let dom = Dominators::compute(f);
        let entry = f.entry_label();

        // Dominance-compatible syntactic order: every reachable non-entry
        // block must appear after its immediate dominator.
        for (i, b) in f.blocks.iter().enumerate() {
            if let Some(idom) = dom.idom(b.label) {
                let idom_index = self.block_index(idom).unwrap_or(usize::MAX);
                if idom_index >= i {
                    self.err(format!(
                        "block {} appears before its dominator {}",
                        b.label, idom
                    ));
                }
            }
        }

        for b in &f.blocks {
            // Phis must be a prefix.
            let phi_count = b.phi_count();
            for (i, inst) in b.instructions.iter().enumerate() {
                if inst.is_phi() && i >= phi_count {
                    self.err(format!("phi after non-phi in block {}", b.label));
                }
            }

            if b.label == entry && !self.preds_of(b.label).is_empty() {
                self.err(format!("entry block {} has predecessors", b.label));
            }

            for (i, inst) in b.instructions.iter().enumerate() {
                // Kind sanity for operands, then op-specific typing.
                let mut operand_errors = Vec::new();
                if let Op::Phi { incoming } = &inst.op {
                    self.check_phi_operands(f, &dom, b.label, incoming, &mut operand_errors);
                } else {
                    inst.op.for_each_id_operand(|id| {
                        if let Op::Call { callee, .. } = &inst.op {
                            if *callee == id {
                                if self.kind(id) != Some(DefKind::Function) {
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
                        } else if let Err(e) = self.available(f, &dom, b.label, i, id) {
                            operand_errors.push(e);
                        }
                    });
                }
                self.errors.extend(operand_errors);
                self.check_instruction_types(b.label, inst);

                if inst.is_variable() {
                    if b.label != entry {
                        self.err(format!(
                            "variable {} outside the entry block",
                            inst.result.map_or_else(|| "<none>".into(), |r| r.to_string())
                        ));
                    }
                    if let Op::Variable { initializer: Some(init), .. } = &inst.op {
                        if self.constant(*init).is_none() {
                            self.err("variable initializer must be a constant".into());
                        }
                    }
                }
            }

            // Terminator checks.
            for target in b.terminator.targets() {
                if !self.has_label(target) {
                    self.err(format!("{} branches to unknown block {target}", b.label));
                } else if target == entry {
                    self.err(format!("{} branches to the entry block", b.label));
                }
            }
            for id in b.terminator.id_operands() {
                if !self.value_kind_ok(id) {
                    self.err(format!("terminator operand {id} in {} is not a value", b.label));
                } else if let Err(e) =
                    self.available(f, &dom, b.label, b.instructions.len(), id)
                {
                    self.err(e);
                }
            }
            match &b.terminator {
                Terminator::BranchConditional { cond, true_target, false_target } => {
                    if self.value_type_decl(*cond).is_some_and(|t| *t != Type::Bool) {
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
                    if let Some(Type::Function { ret, .. }) = self.type_of(f.ty) {
                        if self.value_type(*value) != Some(*ret) {
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
                    if !self.has_label(label) {
                        self.err(format!(
                            "merge annotation on {} names unknown block {label}",
                            b.label
                        ));
                    }
                }
            }
        }
    }

    /// The operand rules of a phi in block `block`: known, distinct
    /// predecessors whose ends its values reach, covering exactly the
    /// block's predecessors.
    fn check_phi_operands(
        &mut self,
        f: &Function,
        dom: &Dominators,
        block: Id,
        incoming: &[(Id, Id)],
        errors: &mut Vec<String>,
    ) {
        let mut sorted = std::mem::take(&mut self.phi_preds);
        sorted.clear();
        sorted.extend(incoming.iter().enumerate().map(|(i, &(_, pred))| (pred, i)));
        sorted.sort_unstable();
        for (i, &(value, pred)) in incoming.iter().enumerate() {
            if !self.has_label(pred) {
                errors.push(format!("phi in {block} names unknown block {pred}"));
            } else {
                // A repeat is any occurrence after the first.
                let at = sorted.binary_search(&(pred, i)).expect("every position is sorted in");
                if at > 0 && sorted[at - 1].0 == pred {
                    errors.push(format!("phi in {block} repeats predecessor {pred}"));
                }
            }
            // Value must be available at the end of the predecessor.
            if let Some(pred_index) = self.block_index(pred) {
                let end = f.blocks[pred_index].instructions.len();
                if let Err(e) = self.available(f, dom, pred, end, value) {
                    errors.push(format!("phi operand: {e}"));
                }
            }
        }
        if dom.is_reachable(block) {
            let preds = self.preds_of(block);
            let named = sorted.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0);
            if !named.eq(preds.iter().map(|&(_, pred)| pred)) {
                let named: BTreeSet<Id> = sorted.iter().map(|&(pred, _)| pred).collect();
                let preds: BTreeSet<Id> = preds.iter().map(|&(_, pred)| pred).collect();
                errors.push(format!(
                    "phi in {block} covers {named:?} but predecessors are {preds:?}"
                ));
            }
        }
        self.phi_preds = sorted;
    }

    fn check_instruction_types(&mut self, block: Id, inst: &crate::Instruction) {
        let vt = |id: Id| self.value_type_decl(id);
        let result_ty = inst.ty.and_then(|t| self.type_of(t));
        let mut errs = Vec::new();
        match &inst.op {
            Op::Binary { op, lhs, rhs } => {
                let lt = vt(*lhs);
                let rt = vt(*rhs);
                if lt.is_some() && rt.is_some() && lt != rt {
                    errs.push(format!(
                        "{} in {block}: operand types differ",
                        op.mnemonic()
                    ));
                }
                if op.is_comparison() {
                    if result_ty.is_some_and(|t| *t != Type::Bool) {
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
                    | BinOp::FOrdGreaterThanEqual => Type::Float,
                    BinOp::LogicalAnd | BinOp::LogicalOr => Type::Bool,
                    _ => Type::Int,
                };
                if lt.is_some_and(|have| *have != want) {
                    errs.push(format!(
                        "{} in {block}: operands must be {want:?}",
                        op.mnemonic()
                    ));
                }
            }
            Op::Unary { op, src } => {
                let (want_src, want_res) = match op {
                    UnOp::SNegate | UnOp::BitNot => (Type::Int, Type::Int),
                    UnOp::FNegate => (Type::Float, Type::Float),
                    UnOp::LogicalNot => (Type::Bool, Type::Bool),
                    UnOp::ConvertSToF => (Type::Int, Type::Float),
                    UnOp::ConvertFToS => (Type::Float, Type::Int),
                };
                if vt(*src).is_some_and(|t| *t != want_src) {
                    errs.push(format!("{} in {block}: operand must be {want_src:?}", op.mnemonic()));
                }
                if result_ty.is_some_and(|t| *t != want_res) {
                    errs.push(format!("{} in {block}: result must be {want_res:?}", op.mnemonic()));
                }
            }
            Op::Select { cond, if_true, if_false } => {
                if vt(*cond).is_some_and(|t| *t != Type::Bool) {
                    errs.push(format!("OpSelect in {block}: condition must be bool"));
                }
                let tt = self.value_type(*if_true);
                let ft = self.value_type(*if_false);
                if tt.is_some() && ft.is_some() && tt != ft {
                    errs.push(format!("OpSelect in {block}: branch types differ"));
                }
                if inst.ty.is_some() && tt.is_some() && inst.ty != tt {
                    errs.push(format!("OpSelect in {block}: result type mismatch"));
                }
            }
            Op::CompositeConstruct { parts } => match result_ty {
                Some(Type::Vector { component, count }) => {
                    if parts.len() != *count as usize {
                        errs.push(format!("OpCompositeConstruct in {block}: arity mismatch"));
                    }
                    for p in parts {
                        if self.value_type(*p) != Some(*component) {
                            errs.push(format!(
                                "OpCompositeConstruct in {block}: component type mismatch"
                            ));
                        }
                    }
                }
                Some(Type::Array { element, len }) => {
                    if parts.len() != *len as usize {
                        errs.push(format!("OpCompositeConstruct in {block}: arity mismatch"));
                    }
                    for p in parts {
                        if self.value_type(*p) != Some(*element) {
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
                            if self.value_type(*p) != Some(*want) {
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
                if let Some(start) = self.value_type(*composite) {
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
                if let Some(start) = self.value_type(*composite) {
                    match self.walk_path(start, indices) {
                        Ok(end) => {
                            if self.value_type(*object) != Some(end) {
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
                if let Some(&Type::Pointer { storage, pointee }) = vt(*base) {
                    let mut current = pointee;
                    let mut ok = true;
                    for idx in indices {
                        if vt(*idx).is_some_and(|t| *t != Type::Int) {
                            errs.push(format!("OpAccessChain in {block}: index must be int"));
                        }
                        current = match self.type_of(current) {
                            Some(Type::Vector { component, .. }) => *component,
                            Some(Type::Array { element, .. }) => *element,
                            Some(Type::Struct { members }) => {
                                match self
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
            Op::Load { pointer } => match vt(*pointer) {
                Some(&Type::Pointer { pointee, .. }) => {
                    if inst.ty != Some(pointee) {
                        errs.push(format!("OpLoad in {block}: result type mismatch"));
                    }
                }
                _ => errs.push(format!("OpLoad in {block}: operand is not a pointer")),
            },
            Op::Store { pointer, value } => match vt(*pointer) {
                Some(&Type::Pointer { storage, pointee }) => {
                    if !storage.is_writable() {
                        errs.push(format!(
                            "OpStore in {block}: storage class {storage} is read-only"
                        ));
                    }
                    if self.value_type(*value) != Some(pointee) {
                        errs.push(format!("OpStore in {block}: value type mismatch"));
                    }
                }
                _ => errs.push(format!("OpStore in {block}: operand is not a pointer")),
            },
            Op::Call { callee, args } => {
                if let Some(callee_fn) = self.function(*callee) {
                    if let Some(Type::Function { ret, params }) = self.type_of(callee_fn.ty) {
                        if inst.ty != Some(*ret) {
                            errs.push(format!("OpFunctionCall in {block}: result type mismatch"));
                        }
                        if args.len() != params.len() {
                            errs.push(format!("OpFunctionCall in {block}: arity mismatch"));
                        } else {
                            for (a, want) in args.iter().zip(params) {
                                if self.value_type(*a) != Some(*want) {
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
                    if self.value_type(*value) != inst.ty {
                        errs.push(format!("OpPhi in {block}: incoming value type mismatch"));
                    }
                }
            }
            Op::Variable { storage, .. } => {
                match result_ty {
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
                    && !result_ty.is_some_and(|t| t.is_scalar() || t.is_composite())
                {
                    errs.push(format!("OpUndef in {block}: type must be a data type"));
                }
                if let Op::CopyObject { src } = &inst.op {
                    if self.value_type(*src) != inst.ty {
                        errs.push(format!("OpCopyObject in {block}: type mismatch"));
                    }
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    fn valid_module() -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c = b.constant_int(7);
        let mut f = b.begin_entry_function("main");
        let x = f.iadd(t_int, c, c);
        f.store_output("out", x);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn valid_module_passes() {
        validate(&valid_module()).expect("should validate");
    }

    #[test]
    fn duplicate_id_detected() {
        let mut m = valid_module();
        let first = m.constants[0].clone();
        m.constants.push(first);
        let err = validate(&m).unwrap_err();
        assert!(err.to_string().contains("declared more than once"), "{err}");
    }

    #[test]
    fn id_above_bound_detected() {
        let mut m = valid_module();
        m.id_bound = 2;
        assert!(validate(&m).is_err());
    }

    #[test]
    fn dangling_operand_detected() {
        let mut m = valid_module();
        let f = m.functions.first_mut().unwrap();
        for b in &mut f.blocks {
            for inst in &mut b.instructions {
                inst.op.for_each_id_operand_mut(|id| *id = Id::new(9999));
            }
        }
        m.ensure_bound_covers(Id::new(9999));
        assert!(validate(&m).is_err());
    }

    #[test]
    fn conditional_branch_requires_merge() {
        let mut b = ModuleBuilder::new();
        let c_true = b.constant_bool(true);
        let mut f = b.begin_entry_function("main");
        let t1 = f.reserve_label();
        let t2 = f.reserve_label();
        // Deliberately no selection_merge.
        f.branch_cond(c_true, t1, t2);
        f.begin_block_with_label(t1);
        f.ret();
        f.begin_block_with_label(t2);
        f.ret();
        f.finish();
        let m = b.finish();
        let err = validate(&m).unwrap_err();
        assert!(err.to_string().contains("no merge annotation"), "{err}");
    }

    #[test]
    fn store_to_uniform_rejected() {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let u = b.uniform("u", t_int);
        let c = b.constant_int(1);
        let mut f = b.begin_entry_function("main");
        f.store(u, c);
        f.store_output("out", c);
        f.ret();
        f.finish();
        let m = b.finish();
        let err = validate(&m).unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
    }

    #[test]
    fn recursion_rejected() {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c = b.constant_int(1);
        let mut g = b.begin_function(t_int, &[]);
        g.ret_value(c);
        let g_id = g.finish();
        let mut f = b.begin_entry_function("main");
        let r = f.call(g_id, vec![]);
        f.store_output("out", r);
        f.ret();
        f.finish();
        let mut m = b.finish();
        // Manually rewrite g to call itself.
        let g_ty = m.function(g_id).unwrap().ty;
        let fresh = m.allocator().fresh();
        m.ensure_bound_covers(fresh);
        let ret_ty = match m.type_of(g_ty) {
            Some(Type::Function { ret, .. }) => *ret,
            _ => unreachable!(),
        };
        let g_fn = m.function_mut(g_id).unwrap();
        g_fn.blocks[0].instructions.push(crate::Instruction::with_result(
            fresh,
            ret_ty,
            Op::Call { callee: g_id, args: vec![] },
        ));
        let err = validate(&m).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn phi_coverage_message_lists_sorted_sets() {
        // A three-way join whose phi names a label that is not a
        // predecessor: both sets print in id order, whatever the order of
        // the phi's operands or of the blocks.
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c1 = b.constant_int(1);
        let c_true = b.constant_bool(true);
        let mut f = b.begin_entry_function("main");
        let entry = f.current_label();
        let (left, inner, right, join) =
            (f.reserve_label(), f.reserve_label(), f.reserve_label(), f.reserve_label());
        f.selection_merge(join);
        f.branch_cond(c_true, right, left);
        f.begin_block_with_label(left);
        f.selection_merge(join);
        f.branch_cond(c_true, inner, join);
        f.begin_block_with_label(inner);
        f.branch(join);
        f.begin_block_with_label(right);
        f.branch(join);
        f.begin_block_with_label(join);
        let phi = f.phi(t_int, vec![(c1, right), (c1, entry), (c1, inner)]);
        f.store_output("out", phi);
        f.ret();
        f.finish();
        let m = b.finish();
        let err = validate(&m).unwrap_err();
        let mut named = [right, entry, inner];
        named.sort();
        let mut preds = [left, inner, right];
        preds.sort();
        let want = format!(
            "phi in {join} covers {{{}, {}, {}}} but predecessors are {{{}, {}, {}}}",
            named[0], named[1], named[2], preds[0], preds[1], preds[2]
        );
        assert!(err.messages().contains(&want), "{err}");
        assert_eq!(reference::validate(&m), Err(err));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let c_int = b.constant_int(1);
        let c_float = b.constant_float(1.0);
        let mut f = b.begin_entry_function("main");
        // Mixing int and float operands must be rejected.
        let bad = f.iadd(t_int, c_int, c_float);
        f.store_output("out", bad);
        f.ret();
        f.finish();
        let m = b.finish();
        assert!(validate(&m).is_err());
    }

    #[test]
    fn error_display_is_nonempty() {
        let mut m = valid_module();
        m.id_bound = 2;
        let err = validate(&m).unwrap_err();
        assert!(!err.to_string().is_empty());
        assert!(!err.messages().is_empty());
    }
}
