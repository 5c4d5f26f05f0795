//! A word-oriented binary encoding of [`Module`]s, in the style of SPIR-V.
//!
//! The encoding starts with a four-word header (magic, version, id bound,
//! reserved zero) followed by an instruction stream. Each instruction's first
//! word packs `word_count << 16 | opcode`, exactly as SPIR-V does, so
//! truncated or corrupted streams are detected.
//!
//! # Example
//!
//! ```
//! use trx_ir::{ModuleBuilder, binary};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new();
//! let c = b.constant_int(1);
//! let mut f = b.begin_entry_function("main");
//! f.store_output("out", c);
//! f.ret();
//! f.finish();
//! let module = b.finish();
//!
//! let words = binary::encode(&module);
//! let back = binary::decode(&words)?;
//! assert_eq!(module, back);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use crate::module::InterfaceBinding;
use crate::{
    BinOp, Block, ConstantDecl, ConstantValue, Function, FunctionControl, FunctionParam,
    GlobalVariable, Id, Instruction, Interface, Merge, Module, Op, StorageClass, Terminator,
    Type, TypeDecl, UnOp,
};

/// The module magic number (`"TRFX"` little-endian).
pub const MAGIC: u32 = 0x5452_4658;
/// The encoding version this crate writes.
pub const VERSION: u32 = 1;

/// A failure to decode a word stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
    /// Word offset at which decoding failed.
    pub offset: usize,
}

impl DecodeError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        DecodeError { message: message.into(), offset }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at word {}: {}", self.offset, self.message)
    }
}

impl Error for DecodeError {}

mod opcode {
    pub const TYPE_VOID: u16 = 1;
    pub const TYPE_BOOL: u16 = 2;
    pub const TYPE_INT: u16 = 3;
    pub const TYPE_FLOAT: u16 = 4;
    pub const TYPE_VECTOR: u16 = 5;
    pub const TYPE_ARRAY: u16 = 6;
    pub const TYPE_STRUCT: u16 = 7;
    pub const TYPE_POINTER: u16 = 8;
    pub const TYPE_FUNCTION: u16 = 9;
    pub const CONSTANT_BOOL: u16 = 10;
    pub const CONSTANT_INT: u16 = 11;
    pub const CONSTANT_FLOAT: u16 = 12;
    pub const CONSTANT_COMPOSITE: u16 = 13;
    pub const GLOBAL_VARIABLE: u16 = 14;
    pub const ENTRY_POINT: u16 = 15;
    pub const INTERFACE: u16 = 16;
    pub const FUNCTION: u16 = 20;
    pub const FUNCTION_PARAMETER: u16 = 21;
    pub const LABEL: u16 = 22;
    pub const SELECTION_MERGE: u16 = 23;
    pub const LOOP_MERGE: u16 = 24;
    pub const FUNCTION_END: u16 = 25;
    pub const UNDEF: u16 = 30;
    pub const COPY_OBJECT: u16 = 31;
    pub const BINARY: u16 = 32;
    pub const UNARY: u16 = 33;
    pub const SELECT: u16 = 34;
    pub const COMPOSITE_CONSTRUCT: u16 = 35;
    pub const COMPOSITE_EXTRACT: u16 = 36;
    pub const COMPOSITE_INSERT: u16 = 37;
    pub const VARIABLE: u16 = 38;
    pub const ACCESS_CHAIN: u16 = 39;
    pub const LOAD: u16 = 40;
    pub const STORE: u16 = 41;
    pub const CALL: u16 = 42;
    pub const PHI: u16 = 43;
    pub const NOP: u16 = 44;
    pub const BRANCH: u16 = 50;
    pub const BRANCH_CONDITIONAL: u16 = 51;
    pub const RETURN: u16 = 52;
    pub const RETURN_VALUE: u16 = 53;
    pub const KILL: u16 = 54;
    pub const UNREACHABLE: u16 = 55;
}

fn storage_code(s: StorageClass) -> u32 {
    StorageClass::ALL.iter().position(|&x| x == s).expect("listed") as u32
}

fn storage_from(code: u32, offset: usize) -> Result<StorageClass, DecodeError> {
    StorageClass::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| DecodeError::new(offset, format!("bad storage class {code}")))
}

fn binop_code(op: BinOp) -> u32 {
    BinOp::ALL.iter().position(|&x| x == op).expect("listed") as u32
}

fn binop_from(code: u32, offset: usize) -> Result<BinOp, DecodeError> {
    BinOp::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| DecodeError::new(offset, format!("bad binary op {code}")))
}

fn unop_code(op: UnOp) -> u32 {
    UnOp::ALL.iter().position(|&x| x == op).expect("listed") as u32
}

fn unop_from(code: u32, offset: usize) -> Result<UnOp, DecodeError> {
    UnOp::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| DecodeError::new(offset, format!("bad unary op {code}")))
}

fn control_code(c: FunctionControl) -> u32 {
    FunctionControl::ALL.iter().position(|&x| x == c).expect("listed") as u32
}

fn control_from(code: u32, offset: usize) -> Result<FunctionControl, DecodeError> {
    FunctionControl::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| DecodeError::new(offset, format!("bad function control {code}")))
}

/// Where the encoder writes its word stream: a `Vec` for [`encode`], or a
/// hasher for [`crate::hash::module_fingerprint`], which so digests exactly
/// the stream `encode` returns without building it.
pub(crate) trait WordSink {
    /// Appends one word to the stream.
    fn word(&mut self, word: u32);
}

impl WordSink for Vec<u32> {
    fn word(&mut self, word: u32) {
        self.push(word);
    }
}

struct Writer<'a, S> {
    out: &'a mut S,
}

impl<S: WordSink> Writer<'_, S> {
    /// Writes the first word of an instruction with `operands` operand
    /// words; the caller writes those next.
    fn begin(&mut self, opcode: u16, operands: usize) {
        let word_count = u32::try_from(operands + 1).expect("instruction too long");
        self.out.word((word_count << 16) | u32::from(opcode));
    }

    fn words(&mut self, words: impl IntoIterator<Item = u32>) {
        for word in words {
            self.out.word(word);
        }
    }

    fn instruction(&mut self, opcode: u16, operands: &[u32]) {
        self.begin(opcode, operands.len());
        self.words(operands.iter().copied());
    }

    /// An instruction whose operands are `head` followed by the ids `tail`.
    fn instruction_with_ids(&mut self, opcode: u16, head: &[u32], tail: &[Id]) {
        self.begin(opcode, head.len() + tail.len());
        self.words(head.iter().copied());
        self.words(tail.iter().map(|id| id.raw()));
    }

    fn string(&mut self, s: &str) {
        // Null-terminated UTF-8 packed little-endian into words, SPIR-V
        // style: always at least one terminating zero byte.
        let mut chunks = s.as_bytes().chunks_exact(4);
        for c in &mut chunks {
            self.out.word(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        }
        let rest = chunks.remainder();
        let mut last = [0u8; 4];
        last[..rest.len()].copy_from_slice(rest);
        self.out.word(u32::from_le_bytes(last));
    }
}

/// Number of words [`Writer::string`] writes for `s`.
fn string_len(s: &str) -> usize {
    s.len() / 4 + 1
}

/// Encodes `module` as a word stream.
#[must_use]
pub fn encode(module: &Module) -> Vec<u32> {
    let mut words = Vec::new();
    encode_into(module, &mut words);
    words
}

/// Writes `module`'s word stream, as [`encode`] returns it, into `out`.
pub(crate) fn encode_into(module: &Module, out: &mut impl WordSink) {
    let mut w = Writer { out };
    w.words([MAGIC, VERSION, module.id_bound, 0]);
    for decl in &module.types {
        encode_type(&mut w, decl);
    }
    for c in &module.constants {
        encode_constant(&mut w, c);
    }
    for g in &module.globals {
        let (ty, id, storage) = (g.ty.raw(), g.id.raw(), storage_code(g.storage));
        match g.initializer {
            Some(init) => {
                w.instruction(opcode::GLOBAL_VARIABLE, &[ty, id, storage, 1, init.raw()]);
            }
            None => w.instruction(opcode::GLOBAL_VARIABLE, &[ty, id, storage, 0]),
        }
    }
    w.instruction(opcode::ENTRY_POINT, &[module.entry_point.raw()]);
    for (kind, bindings) in [
        (0u32, &module.interface.uniforms),
        (1, &module.interface.builtins),
        (2, &module.interface.outputs),
    ] {
        for b in bindings {
            w.begin(opcode::INTERFACE, 2 + string_len(&b.name));
            w.words([kind, b.global.raw()]);
            w.string(&b.name);
        }
    }
    for f in &module.functions {
        encode_function(&mut w, f);
    }
}

fn encode_type(w: &mut Writer<'_, impl WordSink>, decl: &TypeDecl) {
    let id = decl.id.raw();
    match &decl.ty {
        Type::Void => w.instruction(opcode::TYPE_VOID, &[id]),
        Type::Bool => w.instruction(opcode::TYPE_BOOL, &[id]),
        Type::Int => w.instruction(opcode::TYPE_INT, &[id]),
        Type::Float => w.instruction(opcode::TYPE_FLOAT, &[id]),
        Type::Vector { component, count } => {
            w.instruction(opcode::TYPE_VECTOR, &[id, component.raw(), *count]);
        }
        Type::Array { element, len } => {
            w.instruction(opcode::TYPE_ARRAY, &[id, element.raw(), *len]);
        }
        Type::Struct { members } => w.instruction_with_ids(opcode::TYPE_STRUCT, &[id], members),
        Type::Pointer { storage, pointee } => {
            w.instruction(opcode::TYPE_POINTER, &[id, storage_code(*storage), pointee.raw()]);
        }
        Type::Function { ret, params } => {
            w.instruction_with_ids(opcode::TYPE_FUNCTION, &[id, ret.raw()], params);
        }
    }
}

fn encode_constant(w: &mut Writer<'_, impl WordSink>, c: &ConstantDecl) {
    let (ty, id) = (c.ty.raw(), c.id.raw());
    match &c.value {
        ConstantValue::Bool(v) => {
            w.instruction(opcode::CONSTANT_BOOL, &[ty, id, u32::from(*v)]);
        }
        ConstantValue::Int(v) => {
            w.instruction(opcode::CONSTANT_INT, &[ty, id, *v as u32]);
        }
        ConstantValue::Float(bits) => {
            w.instruction(opcode::CONSTANT_FLOAT, &[ty, id, *bits]);
        }
        ConstantValue::Composite(parts) => {
            w.instruction_with_ids(opcode::CONSTANT_COMPOSITE, &[ty, id], parts);
        }
    }
}

fn encode_function(w: &mut Writer<'_, impl WordSink>, f: &Function) {
    w.instruction(opcode::FUNCTION, &[f.id.raw(), f.ty.raw(), control_code(f.control)]);
    for p in &f.params {
        w.instruction(opcode::FUNCTION_PARAMETER, &[p.id.raw(), p.ty.raw()]);
    }
    for b in &f.blocks {
        w.instruction(opcode::LABEL, &[b.label.raw()]);
        for inst in &b.instructions {
            encode_body_instruction(w, inst);
        }
        match b.merge {
            Some(Merge::Selection { merge }) => {
                w.instruction(opcode::SELECTION_MERGE, &[merge.raw()]);
            }
            Some(Merge::Loop { merge, cont }) => {
                w.instruction(opcode::LOOP_MERGE, &[merge.raw(), cont.raw()]);
            }
            None => {}
        }
        encode_terminator(w, &b.terminator);
    }
    w.instruction(opcode::FUNCTION_END, &[]);
}

fn result_pair(inst: &Instruction) -> [u32; 2] {
    [
        inst.ty.map_or(0, Id::raw),
        inst.result.map_or(0, Id::raw),
    ]
}

fn encode_body_instruction(w: &mut Writer<'_, impl WordSink>, inst: &Instruction) {
    let [ty, id] = result_pair(inst);
    match &inst.op {
        Op::Undef => w.instruction(opcode::UNDEF, &[ty, id]),
        Op::CopyObject { src } => w.instruction(opcode::COPY_OBJECT, &[ty, id, src.raw()]),
        Op::Binary { op, lhs, rhs } => {
            w.instruction(opcode::BINARY, &[ty, id, binop_code(*op), lhs.raw(), rhs.raw()]);
        }
        Op::Unary { op, src } => {
            w.instruction(opcode::UNARY, &[ty, id, unop_code(*op), src.raw()]);
        }
        Op::Select { cond, if_true, if_false } => {
            w.instruction(
                opcode::SELECT,
                &[ty, id, cond.raw(), if_true.raw(), if_false.raw()],
            );
        }
        Op::CompositeConstruct { parts } => {
            w.instruction_with_ids(opcode::COMPOSITE_CONSTRUCT, &[ty, id], parts);
        }
        Op::CompositeExtract { composite, indices } => {
            w.begin(opcode::COMPOSITE_EXTRACT, 3 + indices.len());
            w.words([ty, id, composite.raw()]);
            w.words(indices.iter().copied());
        }
        Op::CompositeInsert { object, composite, indices } => {
            w.begin(opcode::COMPOSITE_INSERT, 4 + indices.len());
            w.words([ty, id, object.raw(), composite.raw()]);
            w.words(indices.iter().copied());
        }
        Op::Variable { storage, initializer } => {
            let storage = storage_code(*storage);
            match initializer {
                Some(init) => w.instruction(opcode::VARIABLE, &[ty, id, storage, 1, init.raw()]),
                None => w.instruction(opcode::VARIABLE, &[ty, id, storage, 0]),
            }
        }
        Op::AccessChain { base, indices } => {
            w.instruction_with_ids(opcode::ACCESS_CHAIN, &[ty, id, base.raw()], indices);
        }
        Op::Load { pointer } => w.instruction(opcode::LOAD, &[ty, id, pointer.raw()]),
        Op::Store { pointer, value } => {
            w.instruction(opcode::STORE, &[pointer.raw(), value.raw()]);
        }
        Op::Call { callee, args } => {
            w.instruction_with_ids(opcode::CALL, &[ty, id, callee.raw()], args);
        }
        Op::Phi { incoming } => {
            w.begin(opcode::PHI, 2 + 2 * incoming.len());
            w.words([ty, id]);
            w.words(incoming.iter().flat_map(|(value, pred)| [value.raw(), pred.raw()]));
        }
        Op::Nop => w.instruction(opcode::NOP, &[]),
    }
}

fn encode_terminator(w: &mut Writer<'_, impl WordSink>, t: &Terminator) {
    match t {
        Terminator::Branch { target } => w.instruction(opcode::BRANCH, &[target.raw()]),
        Terminator::BranchConditional { cond, true_target, false_target } => {
            w.instruction(
                opcode::BRANCH_CONDITIONAL,
                &[cond.raw(), true_target.raw(), false_target.raw()],
            );
        }
        Terminator::Return => w.instruction(opcode::RETURN, &[]),
        Terminator::ReturnValue { value } => {
            w.instruction(opcode::RETURN_VALUE, &[value.raw()]);
        }
        Terminator::Kill => w.instruction(opcode::KILL, &[]),
        Terminator::Unreachable => w.instruction(opcode::UNREACHABLE, &[]),
    }
}

struct Reader<'a> {
    words: &'a [u32],
    offset: usize,
}

struct RawInstruction<'a> {
    opcode: u16,
    operands: &'a [u32],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn next(&mut self) -> Result<Option<RawInstruction<'a>>, DecodeError> {
        if self.offset >= self.words.len() {
            return Ok(None);
        }
        let head = self.words[self.offset];
        let word_count = (head >> 16) as usize;
        let opcode = (head & 0xFFFF) as u16;
        if word_count == 0 {
            return Err(DecodeError::new(self.offset, "zero word count"));
        }
        if self.offset + word_count > self.words.len() {
            return Err(DecodeError::new(self.offset, "instruction overruns stream"));
        }
        let operands = &self.words[self.offset + 1..self.offset + word_count];
        let inst = RawInstruction { opcode, operands, offset: self.offset };
        self.offset += word_count;
        Ok(Some(inst))
    }
}

impl RawInstruction<'_> {
    fn id(&self, index: usize) -> Result<Id, DecodeError> {
        let raw = *self
            .operands
            .get(index)
            .ok_or_else(|| DecodeError::new(self.offset, "missing operand"))?;
        if raw == 0 {
            return Err(DecodeError::new(self.offset, "zero id operand"));
        }
        Ok(Id::new(raw))
    }

    fn word(&self, index: usize) -> Result<u32, DecodeError> {
        self.operands
            .get(index)
            .copied()
            .ok_or_else(|| DecodeError::new(self.offset, "missing operand"))
    }

    /// The operands from `index` onwards; empty when the instruction is
    /// shorter, so hostile streams can never index out of bounds.
    fn words_from(&self, index: usize) -> &[u32] {
        self.operands.get(index..).unwrap_or(&[])
    }

    fn ids_from(&self, index: usize) -> Result<Vec<Id>, DecodeError> {
        self.words_from(index)
            .iter()
            .map(|&raw| {
                if raw == 0 {
                    Err(DecodeError::new(self.offset, "zero id operand"))
                } else {
                    Ok(Id::new(raw))
                }
            })
            .collect()
    }

    fn string_from(&self, index: usize) -> Result<String, DecodeError> {
        let mut bytes = Vec::new();
        for word in self.words_from(index) {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let end = bytes
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| DecodeError::new(self.offset, "unterminated string"))?;
        String::from_utf8(bytes[..end].to_vec())
            .map_err(|_| DecodeError::new(self.offset, "invalid UTF-8 string"))
    }
}

/// Decodes a word stream produced by [`encode`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the stream is truncated, has a bad magic or
/// version, or contains malformed instructions. Decoding does **not**
/// validate the module; run [`validate`](crate::validate::validate) on the
/// result.
pub fn decode(words: &[u32]) -> Result<Module, DecodeError> {
    if words.len() < 4 {
        return Err(DecodeError::new(0, "stream shorter than header"));
    }
    if words[0] != MAGIC {
        return Err(DecodeError::new(0, "bad magic"));
    }
    if words[1] != VERSION {
        return Err(DecodeError::new(1, format!("unsupported version {}", words[1])));
    }
    let id_bound = words[2];
    let mut module = Module {
        id_bound,
        types: Vec::new(),
        constants: Vec::new(),
        globals: Vec::new(),
        functions: Vec::new(),
        entry_point: Id::PLACEHOLDER,
        interface: Interface::default(),
    };
    let mut reader = Reader { words, offset: 4 };

    // Function under construction.
    let mut current_function: Option<Function> = None;
    // Block under construction: label, instructions, merge.
    let mut current_block: Option<(Id, Vec<Instruction>, Option<Merge>)> = None;

    while let Some(raw) = reader.next()? {
        let in_function = current_function.is_some();
        match raw.opcode {
            opcode::TYPE_VOID => {
                module.types.push(TypeDecl { id: raw.id(0)?, ty: Type::Void });
            }
            opcode::TYPE_BOOL => {
                module.types.push(TypeDecl { id: raw.id(0)?, ty: Type::Bool });
            }
            opcode::TYPE_INT => {
                module.types.push(TypeDecl { id: raw.id(0)?, ty: Type::Int });
            }
            opcode::TYPE_FLOAT => {
                module.types.push(TypeDecl { id: raw.id(0)?, ty: Type::Float });
            }
            opcode::TYPE_VECTOR => module.types.push(TypeDecl {
                id: raw.id(0)?,
                ty: Type::Vector { component: raw.id(1)?, count: raw.word(2)? },
            }),
            opcode::TYPE_ARRAY => module.types.push(TypeDecl {
                id: raw.id(0)?,
                ty: Type::Array { element: raw.id(1)?, len: raw.word(2)? },
            }),
            opcode::TYPE_STRUCT => module.types.push(TypeDecl {
                id: raw.id(0)?,
                ty: Type::Struct { members: raw.ids_from(1)? },
            }),
            opcode::TYPE_POINTER => module.types.push(TypeDecl {
                id: raw.id(0)?,
                ty: Type::Pointer {
                    storage: storage_from(raw.word(1)?, raw.offset)?,
                    pointee: raw.id(2)?,
                },
            }),
            opcode::TYPE_FUNCTION => module.types.push(TypeDecl {
                id: raw.id(0)?,
                ty: Type::Function { ret: raw.id(1)?, params: raw.ids_from(2)? },
            }),
            opcode::CONSTANT_BOOL => module.constants.push(ConstantDecl {
                ty: raw.id(0)?,
                id: raw.id(1)?,
                value: ConstantValue::Bool(raw.word(2)? != 0),
            }),
            opcode::CONSTANT_INT => module.constants.push(ConstantDecl {
                ty: raw.id(0)?,
                id: raw.id(1)?,
                value: ConstantValue::Int(raw.word(2)? as i32),
            }),
            opcode::CONSTANT_FLOAT => module.constants.push(ConstantDecl {
                ty: raw.id(0)?,
                id: raw.id(1)?,
                value: ConstantValue::Float(raw.word(2)?),
            }),
            opcode::CONSTANT_COMPOSITE => module.constants.push(ConstantDecl {
                ty: raw.id(0)?,
                id: raw.id(1)?,
                value: ConstantValue::Composite(raw.ids_from(2)?),
            }),
            opcode::GLOBAL_VARIABLE => {
                let storage = storage_from(raw.word(2)?, raw.offset)?;
                let initializer = if raw.word(3)? != 0 { Some(raw.id(4)?) } else { None };
                module.globals.push(GlobalVariable {
                    ty: raw.id(0)?,
                    id: raw.id(1)?,
                    storage,
                    initializer,
                });
            }
            opcode::ENTRY_POINT => module.entry_point = raw.id(0)?,
            opcode::INTERFACE => {
                let kind = raw.word(0)?;
                let binding =
                    InterfaceBinding { name: raw.string_from(2)?, global: raw.id(1)? };
                match kind {
                    0 => module.interface.uniforms.push(binding),
                    1 => module.interface.builtins.push(binding),
                    2 => module.interface.outputs.push(binding),
                    other => {
                        return Err(DecodeError::new(
                            raw.offset,
                            format!("bad interface kind {other}"),
                        ))
                    }
                }
            }
            opcode::FUNCTION => {
                if in_function {
                    return Err(DecodeError::new(raw.offset, "nested function"));
                }
                current_function = Some(Function {
                    id: raw.id(0)?,
                    ty: raw.id(1)?,
                    control: control_from(raw.word(2)?, raw.offset)?,
                    params: Vec::new(),
                    blocks: Vec::new(),
                });
            }
            opcode::FUNCTION_PARAMETER => {
                let f = current_function
                    .as_mut()
                    .ok_or_else(|| DecodeError::new(raw.offset, "parameter outside function"))?;
                f.params.push(FunctionParam { id: raw.id(0)?, ty: raw.id(1)? });
            }
            opcode::LABEL => {
                if current_block.is_some() {
                    return Err(DecodeError::new(raw.offset, "label inside open block"));
                }
                if !in_function {
                    return Err(DecodeError::new(raw.offset, "label outside function"));
                }
                current_block = Some((raw.id(0)?, Vec::new(), None));
            }
            opcode::SELECTION_MERGE => {
                let block = current_block
                    .as_mut()
                    .ok_or_else(|| DecodeError::new(raw.offset, "merge outside block"))?;
                block.2 = Some(Merge::Selection { merge: raw.id(0)? });
            }
            opcode::LOOP_MERGE => {
                let block = current_block
                    .as_mut()
                    .ok_or_else(|| DecodeError::new(raw.offset, "merge outside block"))?;
                block.2 = Some(Merge::Loop { merge: raw.id(0)?, cont: raw.id(1)? });
            }
            opcode::FUNCTION_END => {
                if current_block.is_some() {
                    return Err(DecodeError::new(raw.offset, "function end inside block"));
                }
                let f = current_function
                    .take()
                    .ok_or_else(|| DecodeError::new(raw.offset, "function end outside"))?;
                module.functions.push(f);
            }
            opcode::BRANCH
            | opcode::BRANCH_CONDITIONAL
            | opcode::RETURN
            | opcode::RETURN_VALUE
            | opcode::KILL
            | opcode::UNREACHABLE => {
                let terminator = decode_terminator(&raw)?;
                let (label, instructions, merge) = current_block
                    .take()
                    .ok_or_else(|| DecodeError::new(raw.offset, "terminator outside block"))?;
                let f = current_function
                    .as_mut()
                    .ok_or_else(|| DecodeError::new(raw.offset, "terminator outside function"))?;
                f.blocks.push(Block { label, instructions, merge, terminator });
            }
            _ => {
                let inst = decode_body_instruction(&raw)?;
                let block = current_block
                    .as_mut()
                    .ok_or_else(|| DecodeError::new(raw.offset, "instruction outside block"))?;
                block.1.push(inst);
            }
        }
    }
    if current_function.is_some() || current_block.is_some() {
        return Err(DecodeError::new(words.len(), "unterminated function or block"));
    }
    Ok(module)
}

fn decode_result(raw: &RawInstruction<'_>) -> Result<(Option<Id>, Option<Id>), DecodeError> {
    let ty = raw.word(0)?;
    let id = raw.word(1)?;
    let ty = if ty == 0 { None } else { Some(Id::new(ty)) };
    let id = if id == 0 { None } else { Some(Id::new(id)) };
    Ok((ty, id))
}

fn decode_body_instruction(raw: &RawInstruction<'_>) -> Result<Instruction, DecodeError> {
    let op = match raw.opcode {
        opcode::UNDEF => Op::Undef,
        opcode::COPY_OBJECT => Op::CopyObject { src: raw.id(2)? },
        opcode::BINARY => Op::Binary {
            op: binop_from(raw.word(2)?, raw.offset)?,
            lhs: raw.id(3)?,
            rhs: raw.id(4)?,
        },
        opcode::UNARY => Op::Unary {
            op: unop_from(raw.word(2)?, raw.offset)?,
            src: raw.id(3)?,
        },
        opcode::SELECT => Op::Select {
            cond: raw.id(2)?,
            if_true: raw.id(3)?,
            if_false: raw.id(4)?,
        },
        opcode::COMPOSITE_CONSTRUCT => Op::CompositeConstruct { parts: raw.ids_from(2)? },
        opcode::COMPOSITE_EXTRACT => Op::CompositeExtract {
            composite: raw.id(2)?,
            indices: raw.words_from(3).to_vec(),
        },
        opcode::COMPOSITE_INSERT => Op::CompositeInsert {
            object: raw.id(2)?,
            composite: raw.id(3)?,
            indices: raw.words_from(4).to_vec(),
        },
        opcode::VARIABLE => {
            let storage = storage_from(raw.word(2)?, raw.offset)?;
            let initializer = if raw.word(3)? != 0 { Some(raw.id(4)?) } else { None };
            Op::Variable { storage, initializer }
        }
        opcode::ACCESS_CHAIN => Op::AccessChain { base: raw.id(2)?, indices: raw.ids_from(3)? },
        opcode::LOAD => Op::Load { pointer: raw.id(2)? },
        opcode::STORE => {
            return Ok(Instruction::without_result(Op::Store {
                pointer: raw.id(0)?,
                value: raw.id(1)?,
            }))
        }
        opcode::CALL => Op::Call { callee: raw.id(2)?, args: raw.ids_from(3)? },
        opcode::PHI => {
            let pairs = raw.words_from(2);
            if !pairs.len().is_multiple_of(2) {
                return Err(DecodeError::new(raw.offset, "odd phi operand count"));
            }
            let incoming = pairs
                .chunks_exact(2)
                .map(|c| {
                    if c[0] == 0 || c[1] == 0 {
                        Err(DecodeError::new(raw.offset, "zero id in phi"))
                    } else {
                        Ok((Id::new(c[0]), Id::new(c[1])))
                    }
                })
                .collect::<Result<_, _>>()?;
            Op::Phi { incoming }
        }
        opcode::NOP => return Ok(Instruction::without_result(Op::Nop)),
        other => {
            return Err(DecodeError::new(raw.offset, format!("unknown opcode {other}")))
        }
    };
    let (ty, result) = decode_result(raw)?;
    Ok(Instruction { result, ty, op })
}

fn decode_terminator(raw: &RawInstruction<'_>) -> Result<Terminator, DecodeError> {
    Ok(match raw.opcode {
        opcode::BRANCH => Terminator::Branch { target: raw.id(0)? },
        opcode::BRANCH_CONDITIONAL => Terminator::BranchConditional {
            cond: raw.id(0)?,
            true_target: raw.id(1)?,
            false_target: raw.id(2)?,
        },
        opcode::RETURN => Terminator::Return,
        opcode::RETURN_VALUE => Terminator::ReturnValue { value: raw.id(0)? },
        opcode::KILL => Terminator::Kill,
        opcode::UNREACHABLE => Terminator::Unreachable,
        _ => unreachable!("caller dispatched on terminator opcodes"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    fn sample_module() -> Module {
        let mut b = ModuleBuilder::new();
        let t_int = b.type_int();
        let t_float = b.type_float();
        let t_vec = b.type_vector(t_float, 4);
        let u = b.uniform("scale", t_int);
        let c2 = b.constant_int(2);
        let cf = b.constant_float(0.5);
        let _cv = b.constant_composite(t_vec, vec![cf, cf, cf, cf]);

        let mut g = b.begin_function(t_int, &[t_int]);
        let p = g.param_ids()[0];
        let doubled = g.imul(t_int, p, c2);
        g.ret_value(doubled);
        let g_id = g.finish();

        let mut f = b.begin_entry_function("main");
        let loaded = f.load(u);
        let called = f.call(g_id, vec![loaded]);
        f.store_output("out", called);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn round_trip_preserves_module() {
        let m = sample_module();
        let words = encode(&m);
        let back = decode(&words).expect("decode");
        assert_eq!(m, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut words = encode(&sample_module());
        words[0] = 0xDEAD_BEEF;
        assert!(decode(&words).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let words = encode(&sample_module());
        let truncated = &words[..words.len() - 1];
        assert!(decode(truncated).is_err());
    }

    #[test]
    fn short_header_rejected() {
        assert!(decode(&[MAGIC, VERSION]).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut words = encode(&sample_module());
        words[1] = 99;
        let err = decode(&words).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn interface_names_round_trip() {
        let m = sample_module();
        let back = decode(&encode(&m)).unwrap();
        assert_eq!(back.interface.uniforms[0].name, "scale");
        assert_eq!(back.interface.outputs[0].name, "out");
    }
}
