//! Tape translation validator target.
//!
//! Any byte soup that parses (optionally with `in x [lo, hi];` range
//! declarations) must compile — optimizer on and off, unfused and fused
//! both carry-save flavors — to a tape the `T*` translation validator
//! accepts with **zero diagnostics**, and the `R*` value-range pass
//! must never panic on the declared bounds. A finding here is either a
//! miscompilation or a validator false positive; both are bugs.

use csfma_hls::{
    compile_with, fuse_critical_paths, lint_ranges, parse_program_with_ranges, verify_tape,
    CompileOptions, FmaKind, FusionConfig, Profiler,
};
use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    let src = String::from_utf8_lossy(data);
    let Ok((g, decls)) = parse_program_with_ranges(&src) else {
        return; // rejection with a structured error is a fine outcome
    };

    // the range pass must terminate without panicking on any bounds,
    // valid or not (R003 is the structured outcome for bad ones)
    let _ = lint_ranges(&g, &decls);

    let graphs = [
        g.clone(),
        fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused,
        fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused,
    ];
    for g in &graphs {
        for optimize in [false, true] {
            let opts = CompileOptions {
                optimize,
                ..CompileOptions::default()
            };
            let Ok(tape) = compile_with(g, opts, &mut Profiler::disabled()) else {
                continue; // structured compile errors are a fine outcome
            };
            let diags = verify_tape(&tape, g);
            assert!(
                diags.is_empty(),
                "real pipeline tape failed translation validation \
                 (opt={optimize}): {diags:?}\nsource: {src:?}"
            );
        }
    }
});
