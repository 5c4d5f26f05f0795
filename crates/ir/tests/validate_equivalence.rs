//! Differential tests for the validator: the indexed [`validate`] must return
//! exactly what the scan-based [`reference::validate`] returns — the same
//! verdict and the same messages in the same order — on fuzzer-built
//! modules, on modules broken the ways reduction and corrupt inputs break
//! them, and on modules decoded from arbitrary words. Two more tests bound
//! what one call allocates when ids or declared lengths are huge.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trx_core::Context;
use trx_fuzzer::{Fuzzer, FuzzerOptions};
use trx_ir::validate::{reference, validate};
use trx_ir::{
    binary, BinOp, ConstantDecl, ConstantValue, GlobalVariable, Id, Inputs, Instruction, Module,
    ModuleBuilder, Op, StorageClass, Terminator, Type, TypeDecl, UnOp, Value,
};

/// Counts the bytes each thread allocates, so a test can bound what one
/// call allocates while other tests run on other threads.
struct CountingAllocator;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell` whose const initializer never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the bytes this thread allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A seed module touching every construct the validator checks: composite
/// constants of each aggregate type, uniforms, an initialized private
/// global, a helper with a parameter, a local struct variable reached
/// through an access chain, composite extraction, a loop carrying two
/// phis, and a selection joined by a phi.
fn seed_module(seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ModuleBuilder::new();
    let t_int = b.type_int();
    let t_float = b.type_float();
    let t_vec2 = b.type_vector(t_float, 2);
    let t_arr = b.type_array(t_int, 3);
    let t_struct = b.type_struct(vec![t_int, t_float]);
    let c0 = b.constant_int(0);
    let c1 = b.constant_int(1);
    let c_step = b.constant_int(rng.gen_range(2i32..9));
    let c_half = b.constant_float(0.5);
    let c_vec = b.constant_composite(t_vec2, vec![c_half, c_half]);
    let c_arr = b.constant_composite(t_arr, vec![c0, c1, c_step]);
    let c_struct = b.constant_composite(t_struct, vec![c1, c_half]);
    let u = b.uniform("k", t_int);
    let g = b.private_global(t_int, Some(c1));

    let mut h = b.begin_function(t_int, &[t_int]);
    let p = h.param_ids()[0];
    let scaled = h.imul(t_int, p, c_step);
    h.ret_value(scaled);
    let helper = h.finish();

    let mut f = b.begin_entry_function("main");
    let var = f.local_var(t_struct, Some(c_struct));
    let k = f.load(u);
    let called = f.call(helper, vec![k]);
    let field = f.access_chain(var, vec![c0]);
    f.store(field, called);
    let whole = f.load(var);
    let first = f.composite_extract(whole, vec![0]);
    let pre = f.current_label();
    let header = f.reserve_label();
    let body = f.reserve_label();
    let cont = f.reserve_label();
    let exit = f.reserve_label();
    f.branch(header);
    f.begin_block_with_label(header);
    let i = f.phi(t_int, vec![(c0, pre), (Id::PLACEHOLDER, cont)]);
    let acc = f.phi(t_int, vec![(first, pre), (Id::PLACEHOLDER, cont)]);
    let more = f.slt(i, c_step);
    f.loop_merge(exit, cont);
    f.branch_cond(more, body, exit);
    f.begin_block_with_label(body);
    let acc_next = f.iadd(t_int, acc, k);
    f.branch(cont);
    f.begin_block_with_label(cont);
    let i_next = f.iadd(t_int, i, c1);
    f.branch(header);
    f.begin_block_with_label(exit);
    let then_l = f.reserve_label();
    let else_l = f.reserve_label();
    let join = f.reserve_label();
    let positive = f.slt(c0, acc);
    f.selection_merge(join);
    f.branch_cond(positive, then_l, else_l);
    f.begin_block_with_label(then_l);
    let stored = f.load(g);
    let sum = f.iadd(t_int, stored, acc);
    f.branch(join);
    f.begin_block_with_label(else_l);
    let x = f.composite_extract(c_vec, vec![1]);
    let x_int = f.unary(UnOp::ConvertFToS, t_int, x);
    let last = f.composite_extract(c_arr, vec![2]);
    let diff = f.isub(t_int, x_int, last);
    f.branch(join);
    f.begin_block_with_label(join);
    let merged = f.phi(t_int, vec![(sum, then_l), (diff, else_l)]);
    f.store(g, merged);
    f.store_output("out", merged);
    f.ret();
    f.finish();
    let mut m = b.finish();

    let entry = m.functions.iter_mut().find(|f| f.block(header).is_some()).unwrap();
    let header_block = entry.block_mut(header).unwrap();
    for (inst, value) in header_block.instructions.iter_mut().zip([i_next, acc_next]) {
        if let Op::Phi { incoming } = &mut inst.op {
            incoming[1].0 = value;
        }
    }
    validate(&m).expect("the seed module validates");
    m
}

/// A donor whose helper the fuzzer can import.
fn donor() -> Module {
    let mut b = ModuleBuilder::new();
    let t_int = b.type_int();
    let c5 = b.constant_int(5);
    let mut h = b.begin_function(t_int, &[t_int]);
    let p = h.param_ids()[0];
    let r = h.iadd(t_int, p, c5);
    h.ret_value(r);
    h.finish();
    let mut f = b.begin_entry_function("main");
    f.store_output("out", c5);
    f.ret();
    f.finish();
    b.finish()
}

const FUZZED: u64 = 16;

/// Modules the fuzzer built from the seed module, one per fuzzer seed, each
/// over three chained fuzzer runs.
fn fuzzed_modules() -> &'static [Module] {
    static MODULES: OnceLock<Vec<Module>> = OnceLock::new();
    MODULES.get_or_init(|| {
        let donors = [donor()];
        let fuzzer = Fuzzer::new(FuzzerOptions::default());
        (0..FUZZED)
            .map(|seed| {
                let inputs = Inputs::new().with("k", Value::Int(3));
                let mut context = Context::new(seed_module(seed), inputs).unwrap();
                for round in 0..3 {
                    context = fuzzer.run(context, &donors, seed * 3 + round).context;
                }
                context.module
            })
            .collect()
    })
}

fn same_verdict(m: &Module) -> Result<(), String> {
    let (indexed, expected) = (validate(m), reference::validate(m));
    if indexed == expected {
        Ok(())
    } else {
        Err(format!("indexed {indexed:?}\nreference {expected:?}\nmodule:\n{m}"))
    }
}

/// Every id the module declares, in declaration order.
fn declared(m: &Module) -> Vec<Id> {
    let mut ids: Vec<Id> = m.types.iter().map(|d| d.id).collect();
    ids.extend(m.constants.iter().map(|c| c.id));
    ids.extend(m.globals.iter().map(|g| g.id));
    for f in &m.functions {
        ids.push(f.id);
        ids.extend(f.params.iter().map(|p| p.id));
        for b in &f.blocks {
            ids.push(b.label);
            ids.extend(b.instructions.iter().filter_map(|i| i.result));
        }
    }
    ids
}

/// An id to plant: a declared one, one near or past the id bound, one near
/// `u32::MAX`, or the placeholder.
fn random_id(m: &Module, rng: &mut StdRng) -> Id {
    match rng.gen_range(0u8..4) {
        0 => {
            let ids = declared(m);
            ids[rng.gen_range(0..ids.len())]
        }
        1 => Id::new(rng.gen_range(1..=m.id_bound.saturating_add(8))),
        2 => Id::new(u32::MAX - rng.gen_range(0u32..4)),
        _ => Id::PLACEHOLDER,
    }
}

/// Breaks `m` in one of five ways, `rng` choosing where.
fn mutate(m: &mut Module, how: u8, rng: &mut StdRng) {
    let fi = rng.gen_range(0..m.functions.len());
    let planted = random_id(m, rng);
    let label = {
        let f = &m.functions[rng.gen_range(0..m.functions.len())];
        f.blocks[rng.gen_range(0..f.blocks.len())].label
    };
    let f = &mut m.functions[fi];
    let bi = rng.gen_range(0..f.blocks.len());
    match how {
        // Drop an instruction.
        0 => {
            let block = &mut f.blocks[bi];
            if !block.instructions.is_empty() {
                let at = rng.gen_range(0..block.instructions.len());
                block.instructions.remove(at);
            }
        }
        // Retarget a branch, to a label of any function or to a stray id.
        1 => {
            let target = if rng.gen_bool(0.7) { label } else { planted };
            let block = &mut f.blocks[bi];
            let mut retargeted = false;
            block.terminator.for_each_target_mut(|t| {
                if !retargeted && rng.gen_bool(0.6) {
                    *t = target;
                    retargeted = true;
                }
            });
            if !retargeted {
                block.terminator = Terminator::Branch { target };
            }
        }
        // Swap two blocks, the entry block included.
        2 => {
            let other = rng.gen_range(0..f.blocks.len());
            f.blocks.swap(bi, other);
        }
        // Replace an operand with a planted id.
        3 => {
            let block = &mut f.blocks[bi];
            if block.instructions.is_empty() || rng.gen_bool(0.2) {
                block.terminator.for_each_id_operand_mut(|id| *id = planted);
            } else {
                let at = rng.gen_range(0..block.instructions.len());
                let op = &mut block.instructions[at].op;
                let mut operands = 0;
                op.for_each_id_operand_mut(|_| operands += 1);
                if operands > 0 {
                    let pick = rng.gen_range(0..operands);
                    let mut seen = 0;
                    op.for_each_id_operand_mut(|id| {
                        if seen == pick {
                            *id = planted;
                        }
                        seen += 1;
                    });
                } else if let Op::Phi { incoming } = op {
                    // A phi with no incoming values: give it a stray one.
                    incoming.push((planted, label));
                }
            }
        }
        // Duplicate a declaration.
        _ => match rng.gen_range(0u8..7) {
            0 => {
                let d = m.types[rng.gen_range(0..m.types.len())].clone();
                m.types.push(d);
            }
            1 => {
                let c = m.constants[rng.gen_range(0..m.constants.len())].clone();
                m.constants.insert(0, c);
            }
            2 => {
                let g = m.globals[rng.gen_range(0..m.globals.len())].clone();
                m.globals.push(g);
            }
            3 => {
                let copy = m.functions[fi].clone();
                m.functions.push(copy);
            }
            4 => {
                if let Some(&p) = f.params.first() {
                    f.params.push(p);
                }
            }
            5 => {
                let copy = f.blocks[bi].clone();
                f.blocks.push(copy);
            }
            _ => {
                let block = &mut f.blocks[bi];
                if let Some(inst) = block.instructions.last().cloned() {
                    block.instructions.insert(0, inst);
                }
            }
        },
    }
}

#[test]
fn validators_agree_on_fuzzed_modules() {
    for (seed, m) in fuzzed_modules().iter().enumerate() {
        assert!(validate(m).is_ok(), "fuzzer seed {seed} built an invalid module");
        same_verdict(m).unwrap_or_else(|e| panic!("fuzzer seed {seed}: {e}"));
    }
}

/// The reference checks a composite constant by first building a vector as
/// long as its type's declared length (`vec![element; len]`), so a stream
/// that declares a huge vector or array length for one would make it
/// allocate up to 16 GiB. [`huge_declared_lengths_allocate_nothing_extra`]
/// covers those modules for the indexed validator alone.
fn reference_would_allocate_declared_length(m: &Module) -> bool {
    m.constants.iter().any(|c| {
        matches!(c.value, ConstantValue::Composite(_))
            && matches!(
                m.type_of(c.ty),
                Some(Type::Vector { count: n, .. } | Type::Array { len: n, .. }) if *n > 1 << 16
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// One to three mutations of a fuzzer-built module.
    #[test]
    fn validators_agree_on_mutated_modules(
        pick in 0u64..FUZZED,
        seed in 0u64..=u64::MAX,
        mutations in vec(0u8..5, 1..=3),
    ) {
        let mut m = fuzzed_modules()[pick as usize].clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for how in mutations {
            mutate(&mut m, how, &mut rng);
        }
        same_verdict(&m)?;
    }

    /// A single replaced word of a fuzzer-built module's encoding, decoded.
    #[test]
    fn validators_agree_on_corrupted_streams(
        pick in 0u64..FUZZED,
        position in 0usize..4096,
        replacement in 0u32..=u32::MAX,
        small in 0u32..64,
        choice in 0u8..3,
    ) {
        let mut words = binary::encode(&fuzzed_modules()[pick as usize]);
        let at = position % words.len();
        words[at] = match choice {
            0 => replacement,
            1 => small,
            _ => words[position / 7 % words.len()],
        };
        if let Ok(m) = binary::decode(&words) {
            if reference_would_allocate_declared_length(&m) {
                let _ = validate(&m);
            } else {
                same_verdict(&m)?;
            }
        }
    }

    /// Arbitrary words behind a valid header.
    #[test]
    fn validators_agree_on_arbitrary_words(
        bound in 1u32..=u32::MAX,
        body in vec(0u32..=u32::MAX, 0..256),
    ) {
        let mut words = vec![binary::MAGIC, binary::VERSION, bound, 0];
        words.extend(body);
        if let Ok(m) = binary::decode(&words) {
            if reference_would_allocate_declared_length(&m) {
                let _ = validate(&m);
            } else {
                same_verdict(&m)?;
            }
        }
    }
}

/// An otherwise valid module declaring ids near `u32::MAX`: a constant, a
/// global and a result.
fn module_with_huge_ids() -> Module {
    let mut m = seed_module(0);
    m.id_bound = u32::MAX;
    let t_int = m.lookup_type(&Type::Int).unwrap();
    let huge = Id::new(u32::MAX - 2);
    m.constants.push(ConstantDecl { id: huge, ty: t_int, value: ConstantValue::Int(41) });
    let ptr = Id::new(u32::MAX - 3);
    let pointer = Type::Pointer { storage: StorageClass::Private, pointee: t_int };
    m.types.push(TypeDecl { id: ptr, ty: pointer });
    m.globals.push(GlobalVariable {
        id: Id::new(u32::MAX - 1),
        ty: ptr,
        storage: StorageClass::Private,
        initializer: Some(huge),
    });
    let entry = m.entry_point;
    let f = m.function_mut(entry).unwrap();
    f.blocks[0].instructions.push(Instruction::with_result(
        Id::new(u32::MAX - 4),
        t_int,
        Op::Binary { op: BinOp::IAdd, lhs: huge, rhs: huge },
    ));
    m
}

#[test]
fn huge_ids_validate_without_id_sized_tables() {
    let valid = module_with_huge_ids();
    let mut over_bound = valid.clone();
    // Ids at or above the bound are errors both validators report.
    over_bound.id_bound = u32::MAX - 3;
    for m in [&valid, &over_bound] {
        same_verdict(m).unwrap();
        let (_, bytes) = allocated_by(|| validate(m));
        assert!(bytes < 1 << 20, "one validation allocated {bytes} bytes");
    }
    assert!(validate(&valid).is_ok());
    assert!(validate(&over_bound).is_err());
}

#[test]
fn huge_declared_lengths_allocate_nothing_extra() {
    let mut m = seed_module(0);
    let t_int = m.lookup_type(&Type::Int).unwrap();
    let c0 = m.constants.iter().find(|c| c.value == ConstantValue::Int(0)).unwrap().id;
    let array = m.allocator().fresh();
    let constant = Id::new(array.raw() + 1);
    m.ensure_bound_covers(constant);
    m.types.push(TypeDecl { id: array, ty: Type::Array { element: t_int, len: u32::MAX } });
    m.constants.push(ConstantDecl {
        id: constant,
        ty: array,
        value: ConstantValue::Composite(vec![c0]),
    });
    assert!(reference_would_allocate_declared_length(&m));
    let (verdict, bytes) = allocated_by(|| validate(&m));
    let err = verdict.unwrap_err();
    assert_eq!(
        err.messages(),
        [format!("composite constant {constant} has 1 parts, expected {}", u32::MAX)]
    );
    assert!(bytes < 1 << 20, "one validation allocated {bytes} bytes");
}
