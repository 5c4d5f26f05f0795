//! Property-based tests over the whole stack, using the fuzzers themselves
//! as generators of "arbitrary realistic modules".

use proptest::prelude::*;

use transfuzz::baseline::{cross_compile, BaselineFuzzer};
use transfuzz::core::Context;
use transfuzz::fuzzer::{Fuzzer, FuzzerOptions};
use transfuzz::harness::corpus::{donor_modules, reference_shader, REFERENCE_COUNT};
use transfuzz::ir::validate::{reference, validate};
use transfuzz::ir::{binary, interp};
use transfuzz::targets::catalog;

fn fuzzed_module(seed: u64) -> Context {
    let reference = reference_shader(seed as usize % REFERENCE_COUNT);
    let original = Context::new(reference.module, reference.inputs).unwrap();
    Fuzzer::new(FuzzerOptions::default())
        .run(original, &donor_modules(), seed)
        .context
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2.6, property-based: any seed's variant is valid and
    /// semantics-preserving under both fuzzers.
    #[test]
    fn variants_preserve_semantics(seed in 0u64..5_000) {
        let reference = reference_shader(seed as usize % REFERENCE_COUNT);
        let original = Context::new(reference.module, reference.inputs).unwrap();
        let expected = interp::execute(&original.module, &original.inputs).unwrap();

        let spirv = Fuzzer::new(FuzzerOptions::default())
            .run(original.clone(), &donor_modules(), seed);
        prop_assert!(validate(&spirv.context.module).is_ok());
        prop_assert_eq!(
            &interp::execute(&spirv.context.module, &original.inputs).unwrap(),
            &expected
        );

        let glsl = BaselineFuzzer::default().run(original.clone(), &donor_modules(), seed);
        prop_assert!(validate(&glsl.context.module).is_ok());
        prop_assert_eq!(
            &interp::execute(&glsl.context.module, &original.inputs).unwrap(),
            &expected
        );
    }

    /// The indexed validator reports exactly what the scan-based reference
    /// reports on fuzzed modules, and on the same modules with every
    /// function's blocks reversed.
    #[test]
    fn validators_agree_on_fuzzed_modules(seed in 0u64..5_000) {
        let mut module = fuzzed_module(seed).module;
        prop_assert_eq!(validate(&module), reference::validate(&module));
        for f in &mut module.functions {
            f.blocks.reverse();
        }
        prop_assert_eq!(validate(&module), reference::validate(&module));
    }

    /// The binary codec round-trips arbitrary fuzzed modules exactly.
    #[test]
    fn binary_round_trip_on_fuzzed_modules(seed in 0u64..5_000) {
        let ctx = fuzzed_module(seed);
        let words = binary::encode(&ctx.module);
        let decoded = binary::decode(&words).expect("decode");
        prop_assert_eq!(ctx.module, decoded);
    }

    /// Cross-compilation (the glslang analogue) is semantics-preserving and
    /// idempotent on fuzzed modules.
    #[test]
    fn cross_compile_preserves_and_is_idempotent(seed in 0u64..5_000) {
        let ctx = fuzzed_module(seed);
        let crossed = cross_compile(&ctx.module);
        prop_assert!(validate(&crossed).is_ok());
        prop_assert_eq!(
            interp::execute(&ctx.module, &ctx.inputs).unwrap(),
            interp::execute(&crossed, &ctx.inputs).unwrap()
        );
        prop_assert_eq!(cross_compile(&crossed), crossed.clone());
    }

    /// Every clean optimizer pass pipeline preserves semantics on fuzzed
    /// modules — the correctness baseline that injected bugs perturb.
    #[test]
    fn optimizer_pipelines_preserve_semantics(seed in 0u64..5_000) {
        let ctx = fuzzed_module(seed);
        let expected = interp::execute(&ctx.module, &ctx.inputs).unwrap();
        let mut optimized = ctx.module.clone();
        for pass in transfuzz::targets::PassKind::ALL {
            pass.run(&mut optimized);
            let result = interp::execute(&optimized, &ctx.inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", pass.name()));
            prop_assert_eq!(&result, &expected, "after {}", pass.name());
        }
    }

    /// Crash signatures are stable: compiling the same module twice yields
    /// the same outcome (targets are deterministic).
    #[test]
    fn targets_are_deterministic(seed in 0u64..2_000) {
        let ctx = fuzzed_module(seed);
        for target in catalog::all_targets() {
            let a = target.execute(&ctx.module, &ctx.inputs);
            let b = target.execute(&ctx.module, &ctx.inputs);
            prop_assert_eq!(a, b, "{}", target.name());
        }
    }

    /// The disassembler's size measure is consistent: the delta between a
    /// module and itself is zero lines.
    #[test]
    fn disassembly_self_delta_is_zero(seed in 0u64..5_000) {
        let ctx = fuzzed_module(seed);
        let text = transfuzz::ir::disasm::disassemble(&ctx.module);
        prop_assert_eq!(
            transfuzz::ir::disasm::changed_line_count(&text, &text),
            0
        );
    }
}
