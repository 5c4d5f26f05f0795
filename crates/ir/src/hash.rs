//! Stable structural fingerprints.
//!
//! The reduction engine memoizes interestingness verdicts per *context*: two
//! candidate transformation sequences that normalize to the same module (and
//! facts, and inputs) must share one memo slot. That needs a hash that is
//!
//! * **stable across runs and processes** — `std::collections::hash_map`'s
//!   `DefaultHasher` is randomly seeded, so memo decisions would differ
//!   between a run and its journal replay, breaking bit-identical resume;
//! * **structural** — a pure function of the module's encoded form, not of
//!   allocation addresses or container iteration order.
//!
//! [`StableHasher`] is a 64-bit FNV-1a hasher (the offset-basis/prime pair
//! of Fowler–Noll–Vo), chosen because it is trivially reimplementable,
//! dependency-free, and more than strong enough for a memo table whose
//! collisions only cost a wrong-but-deterministic verdict on adversarial
//! inputs. [`module_fingerprint`] feeds it the module's [`crate::binary`]
//! word stream, which already canonicalizes every structural detail.

use crate::binary;
use crate::interp::{Inputs, Value};
use crate::module::Module;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A deterministic, seed-free 64-bit streaming hasher (FNV-1a).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Mixes raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes one `u32` (little-endian) into the state.
    pub fn write_u32(&mut self, word: u32) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// Mixes one `u64` (little-endian) into the state.
    pub fn write_u64(&mut self, word: u64) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// Mixes a length-prefixed string into the state, so `("ab","c")` and
    /// `("a","bc")` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Mixes an interpreter [`Value`]. Floats hash by bit pattern, so
    /// `-0.0` and `0.0` (different bits, possibly different observable
    /// output encodings) stay distinct and `NaN` hashes deterministically.
    pub fn write_value(&mut self, value: &Value) {
        match value {
            Value::Bool(b) => {
                self.write_u32(0);
                self.write_u32(u32::from(*b));
            }
            Value::Int(i) => {
                self.write_u32(1);
                self.write_u32(*i as u32);
            }
            Value::Float(f) => {
                self.write_u32(2);
                self.write_u32(f.to_bits());
            }
            Value::Composite(parts) => {
                self.write_u32(3);
                self.write_u64(parts.len() as u64);
                for part in parts {
                    self.write_value(part);
                }
            }
            Value::Pointer(p) => {
                self.write_u32(4);
                self.write_u64(p.cell as u64);
                self.write_u64(p.path.len() as u64);
                for step in &p.path {
                    self.write_u32(*step);
                }
            }
        }
    }

    /// Mixes an input binding set (already ordered: `Inputs` iterates a
    /// `BTreeMap`).
    pub fn write_inputs(&mut self, inputs: &Inputs) {
        let mut count = 0u64;
        for (name, value) in inputs.iter() {
            self.write_str(name);
            self.write_value(value);
            count += 1;
        }
        self.write_u64(count);
    }

    /// Finalizes and returns the 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl binary::WordSink for StableHasher {
    fn word(&mut self, word: u32) {
        self.write_u32(word);
    }
}

/// Structural 64-bit fingerprint of `module`: FNV-1a over its canonical
/// [`binary::encode`] word stream, hashed as the encoder writes it.
#[must_use]
pub fn module_fingerprint(module: &Module) -> u64 {
    let mut h = StableHasher::new();
    binary::encode_into(module, &mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;

    fn sample_module(value: i32) -> Module {
        let mut b = ModuleBuilder::new();
        let c = b.constant_int(value);
        let mut f = b.begin_entry_function("main");
        f.store_output("out", c);
        f.ret();
        f.finish();
        b.finish()
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let m = sample_module(7);
        assert_eq!(module_fingerprint(&m), module_fingerprint(&m));
        assert_eq!(module_fingerprint(&m), module_fingerprint(&sample_module(7)));
    }

    #[test]
    fn fingerprint_distinguishes_modules() {
        assert_ne!(
            module_fingerprint(&sample_module(7)),
            module_fingerprint(&sample_module(8))
        );
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c — pins the constants.
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn float_inputs_hash_by_bits() {
        let mut a = Inputs::new();
        a.set("u", Value::Float(0.0));
        let mut b = Inputs::new();
        b.set("u", Value::Float(-0.0));
        let mut ha = StableHasher::new();
        ha.write_inputs(&a);
        let mut hb = StableHasher::new();
        hb.write_inputs(&b);
        assert_ne!(ha.finish(), hb.finish());
    }
}
