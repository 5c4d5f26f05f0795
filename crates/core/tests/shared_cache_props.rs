//! Property tests for the shared sharded prefix cache.
//!
//! Two satellite properties, each exercised under real concurrency:
//!
//! 1. **Fingerprint safety** — a lookup never returns a transition for a
//!    mismatched fingerprint. At the raw edge API this means a hit for key
//!    `(state_fp, transformation_id)` carries exactly the payload stored
//!    under that key; at the session level it means a materialized context
//!    is byte-identical to a fresh `apply_sequence` replay no matter which
//!    threads warmed which edges first.
//! 2. **Byte-budget accounting** — resident bytes always equal the sum of
//!    edge charges (the unsigned counter can never underflow) and never
//!    exceed the budget by more than the per-shard rounding slack: each of
//!    the N shards holds at most `ceil(budget / N)` bytes, so the whole
//!    cache holds at most `budget + (N - 1)` bytes — strictly tighter than
//!    the one-extra-entry bound the design allows.

use std::sync::Arc;
use std::thread;

use proptest::collection::vec;
use proptest::prelude::*;
use trx_core::transformations::{AddConstant, SetFunctionControl};
use trx_core::{
    apply_sequence, context_fingerprint, context_size_estimate, transformation_id, Context,
    SharedCacheSession, SharedPrefixCache, Transformation,
};
use trx_ir::{ConstantValue, FunctionControl, Id, Inputs, ModuleBuilder, Type};

/// A tiny module with a helper call: enough surface for flip genes (the
/// helper's function control) and collision-prone `AddConstant` genes.
fn base_context() -> Context {
    let mut b = ModuleBuilder::new();
    let c = b.constant_int(1);
    let t_int = b.type_int();
    let mut h = b.begin_function(t_int, &[]);
    h.ret_value(c);
    let helper = h.finish();
    let mut f = b.begin_entry_function("main");
    let r = f.call(helper, vec![]);
    f.store_output("out", r);
    f.ret();
    f.finish();
    Context::new(b.finish(), Inputs::default()).unwrap()
}

/// Decodes one gene word into a transformation. Even words flip the
/// helper's function control; odd words add a constant drawn from a pool of
/// only four fresh ids, so repeated slots fail their precondition and
/// produce `false` mask entries — the walk must track fingerprints through
/// no-op steps too.
fn decode(ctx: &Context, genes: &[u32]) -> Vec<Transformation> {
    let helper = ctx
        .module
        .functions
        .iter()
        .map(|f| f.id)
        .find(|&id| id != ctx.module.entry_point)
        .expect("base context has a helper");
    let t_int = ctx
        .module
        .types
        .iter()
        .find(|decl| matches!(decl.ty, Type::Int))
        .expect("base context declares an int type")
        .id;
    genes
        .iter()
        .map(|&g| {
            if g % 2 == 0 {
                let control = if g % 4 == 0 {
                    FunctionControl::Inline
                } else {
                    FunctionControl::DontInline
                };
                SetFunctionControl { function: helper, control }.into()
            } else {
                AddConstant {
                    fresh_id: Id::new(900 + (g / 2) % 4),
                    ty: t_int,
                    value: ConstantValue::Int(((g / 8) % 200) as i32 - 100),
                }
                .into()
            }
        })
        .collect()
}

/// The deterministic payload a well-behaved writer stores under `key` in
/// the raw-API test: any hit must return exactly this fingerprint.
fn payload_fp(key: (u64, u64)) -> u64 {
    key.0.rotate_left(17) ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn payload_applied(key: (u64, u64)) -> bool {
    (key.0 ^ key.1) & 1 == 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Session-level fingerprint safety: concurrent sessions materializing
    /// overlapping delta-debugging candidates through one shared cache each
    /// reproduce the reference replay byte for byte, for every
    /// budget/shard/thread mix.
    #[test]
    fn concurrent_sessions_match_the_reference_replay(
        genes in vec(0u32..10_000, 3..10),
        budget_pick in 0usize..3,
        shards in 1usize..5,
        threads in 1usize..5,
    ) {
        let budget = [0usize, 2 << 10, 1 << 20][budget_pick];
        let original = base_context();
        let sequence = decode(&original, &genes);
        let cache = Arc::new(SharedPrefixCache::new(budget, shards));
        thread::scope(|s| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                let original = &original;
                let sequence = &sequence;
                s.spawn(move || {
                    let mut session = SharedCacheSession::new(cache);
                    // Each thread walks a different half of the chunk-
                    // deletion schedule, so threads both produce and
                    // consume edges.
                    for start in 0..sequence.len() {
                        for end in start..=sequence.len() {
                            if (start + end + t) % 2 == 0 {
                                continue;
                            }
                            let mut candidate = sequence[..start].to_vec();
                            candidate.extend_from_slice(&sequence[end..]);
                            let ids: Vec<u64> =
                                candidate.iter().map(transformation_id).collect();
                            let m = session.materialize_with_ids(original, &candidate, &ids);
                            let mut want = original.clone();
                            let want_mask = apply_sequence(&mut want, &candidate);
                            assert_eq!(m.mask, want_mask, "mask diverged on thread {t}");
                            assert_eq!(m.context.module, want.module);
                            assert_eq!(m.context.facts, want.facts);
                            assert_eq!(m.fingerprint, Some(context_fingerprint(&want)));
                        }
                    }
                });
            }
        });
        cache.debug_check_accounting();
        let total_cap = budget.div_ceil(shards) * shards;
        prop_assert!(cache.stats().resident_bytes as usize <= total_cap);
    }

    /// Raw-API fingerprint safety: four threads hammer a small key space
    /// with interleaved inserts and lookups under heavy eviction churn; a
    /// hit must carry exactly the payload every writer stores for that key,
    /// never a neighbour's transition.
    #[test]
    fn lookups_never_return_a_mismatched_transition(
        key_words in vec(0u64..256, 1..200),
        shards in 1usize..5,
        budget_entries in 1usize..16,
    ) {
        let ctx = Arc::new(base_context());
        let bytes = context_size_estimate(&ctx);
        let cache = Arc::new(SharedPrefixCache::new(bytes * budget_entries, shards));
        thread::scope(|s| {
            for t in 0..4usize {
                let cache = Arc::clone(&cache);
                let ctx = Arc::clone(&ctx);
                let key_words = &key_words;
                s.spawn(move || {
                    for (i, &w) in key_words.iter().enumerate() {
                        let key = (w % 32, (w / 32) % 8);
                        if (i + t) % 3 == 0 {
                            cache.insert(
                                key,
                                Arc::clone(&ctx),
                                payload_applied(key),
                                payload_fp(key),
                                bytes,
                            );
                        } else if let Some((_, applied, fp)) = cache.lookup(key) {
                            assert_eq!(
                                fp,
                                payload_fp(key),
                                "mismatched transition returned for key {key:?}"
                            );
                            assert_eq!(applied, payload_applied(key));
                        }
                    }
                });
            }
        });
        cache.debug_check_accounting();
    }

    /// Byte accounting under arbitrary churn: charges of arbitrary sizes and
    /// replacement of live keys. After every operation the resident-byte
    /// gauge equals the sum of edge charges (no underflow is possible
    /// without this test's sum check tripping first) and stays within every
    /// shard's budget slice. An insert is only ever refused when the entry
    /// alone exceeds a whole shard's budget.
    #[test]
    fn byte_accounting_stays_exact_under_arbitrary_churn(
        op_words in vec(0u64..(1 << 32), 1..200),
        budget in 0usize..8192,
        shards in 1usize..5,
    ) {
        let ctx = Arc::new(base_context());
        let cache = SharedPrefixCache::new(budget, shards);
        let shard_budget = budget.div_ceil(shards);
        for &w in &op_words {
            let key = (w % 16, (w / 16) % 4);
            let bytes = ((w >> 8) % 4096) as usize;
            let outcome = cache.insert(key, Arc::clone(&ctx), true, payload_fp(key), bytes);
            cache.debug_check_accounting();
            if !outcome.inserted {
                prop_assert!(
                    bytes > shard_budget,
                    "insert of {bytes} bytes refused under shard budget {shard_budget}"
                );
            }
            let stats = cache.stats();
            prop_assert!(stats.resident_bytes as usize <= shard_budget * shards);
            prop_assert!(stats.peak_bytes as usize <= shard_budget * shards);
        }
    }
}
