//! Bit-level determinism across the whole stack: hardware models must be
//! pure functions of their inputs (a prerequisite for the VCD traces, the
//! energy accounting and any regression comparison).

use csfma::prelude::*;

#[test]
fn fma_units_are_pure_functions() {
    for fmt in [
        CsFmaFormat::PCS_55_ZD,
        CsFmaFormat::PCS_58_LZA,
        CsFmaFormat::FCS_29_LZA,
    ] {
        let unit = CsFmaUnit::new(fmt);
        let a = CsOperand::from_f64(0.123456789, fmt);
        let b = SoftFloat::from_f64(FpFormat::BINARY64, -7.89);
        let c = CsOperand::from_f64(4.2e-7, fmt);
        let r1 = unit.fma(&a, &b, &c);
        let r2 = unit.fma(&a, &b, &c);
        assert_eq!(r1.pack(), r2.pack(), "{}", fmt.name);
        assert_eq!(r1.exp(), r2.exp());
    }
}

#[test]
fn full_flow_is_reproducible() {
    // solver -> codegen -> fusion -> schedule: byte-identical both times
    let run = || {
        let p = &solver_suite()[0];
        let kkt = KktSystem::assemble(p);
        let f = LdlFactors::factor(&kkt.matrix);
        let prog = generate_ldlsolve(&f);
        let rep = fuse_critical_paths(&prog.cdfg, &FusionConfig::new(FmaKind::Fcs));
        let t = OpTiming::default();
        let sched = asap_schedule(&rep.fused, &t);
        (
            rep.final_length,
            rep.fma_nodes,
            sched.start,
            csfma::hls::to_source(&rep.fused),
        )
    };
    let (l1, n1, s1, src1) = run();
    let (l2, n2, s2, src2) = run();
    assert_eq!(l1, l2);
    assert_eq!(n1, n2);
    assert_eq!(s1, s2);
    assert_eq!(src1, src2);
}

#[test]
fn chain_state_is_bit_stable_across_orders_of_construction() {
    // building the same operand via different call paths must produce the
    // same packed transport word
    let fmt = CsFmaFormat::PCS_55_ZD;
    let direct = CsOperand::from_f64(2.5, fmt);
    let via_ieee = CsOperand::from_ieee(&SoftFloat::from_f64(FpFormat::BINARY64, 2.5), fmt);
    assert_eq!(direct.pack(), via_ieee.pack());
}

#[test]
fn eval_batch_is_thread_count_invariant() {
    // the batch engine's contract: byte-identical output for any worker
    // count, and equal to a sequential scalar loop over the same rows —
    // fixed-size chunks make the split independent of scheduling
    use csfma::hls::interp::eval_bit_accurate;
    use csfma::hls::{compile, TapeBackend};
    use std::collections::HashMap;

    let p = &solver_suite()[0];
    let kkt = KktSystem::assemble(p);
    let f = LdlFactors::factor(&kkt.matrix);
    let prog = generate_ldlsolve(&f);
    let rep = fuse_critical_paths(&prog.cdfg, &FusionConfig::new(FmaKind::Pcs));
    let tape = compile(&rep.fused).expect("fused solver compiles");

    let ni = tape.num_inputs();
    let n_rows = 3 * 64 + 19; // several chunks plus a ragged tail
    let rows: Vec<f64> = (0..n_rows * ni)
        .map(|i| {
            // deterministic, sign-varying, scale-varying stimulus
            let k = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((k % 2001) as f64 - 1000.0) * 1.5e-2
        })
        .collect();

    for backend in [TapeBackend::BitAccurate, TapeBackend::Jit] {
        let reference = tape.eval_batch(backend, &rows, 1);
        for threads in [2usize, 8] {
            let got = tape.eval_batch(backend, &rows, threads);
            assert_eq!(reference.len(), got.len());
            assert!(
                reference
                    .iter()
                    .zip(got.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{backend:?} output varies at {threads} threads"
            );
        }

        // sequential scalar-oracle loop over the same rows
        let no = tape.num_outputs();
        for r in [0usize, 1, 64, 65, n_rows - 1] {
            let m: HashMap<String, f64> = tape
                .input_names()
                .iter()
                .enumerate()
                .map(|(k, n)| (n.clone(), rows[r * ni + k]))
                .collect();
            let want = eval_bit_accurate(&rep.fused, &m);
            for (k, name) in tape.output_names().iter().enumerate() {
                assert_eq!(
                    reference[r * no + k].to_bits(),
                    want[name].to_bits(),
                    "{backend:?} row {r} output {name} differs from scalar oracle"
                );
            }
        }
    }
}

#[test]
fn ragged_tail_batches_match_scalar_at_any_thread_count() {
    // the bit backend dispatches full 64-row chunks to the bit-plane
    // kernel and ragged tails to the scalar units; every batch size
    // around the chunk boundary must agree bit-for-bit with the
    // all-scalar oracle backend, at every worker count
    use csfma::hls::{compile, fuse_critical_paths as fuse, parse_program, TapeBackend};

    let listing1 = parse_program("x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;")
        .expect("listing1 parses");
    let horner =
        parse_program("p1 = c8*x + c7;\n p2 = p1*x + c6;\n p3 = p2*x + c5;\n out y = p3*x + c4;")
            .expect("horner parses");
    for (g, kind) in [
        (&listing1, FmaKind::Pcs),
        (&listing1, FmaKind::Fcs),
        (&horner, FmaKind::Pcs),
    ] {
        let fused = fuse(g, &FusionConfig::new(kind)).fused;
        let tape = compile(&fused).expect("fused graph compiles");
        let ni = tape.num_inputs();
        for n_rows in [1usize, 63, 64, 65, 127] {
            let rows: Vec<f64> = (0..n_rows * ni)
                .map(|i| {
                    let k = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    ((k % 4001) as f64 - 2000.0) * 7.25e-3
                })
                .collect();
            let scalar = tape.eval_batch(TapeBackend::Oracle, &rows, 1);
            for threads in [1usize, 4, 8] {
                let plane = tape.eval_batch(TapeBackend::BitAccurate, &rows, threads);
                assert_eq!(scalar.len(), plane.len());
                assert!(
                    scalar
                        .iter()
                        .zip(plane.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kind:?} batch of {n_rows} at {threads} threads diverged from scalar"
                );
            }
        }
    }
}

#[test]
fn tape_compilation_is_deterministic() {
    // same graph -> same instruction stream, register counts, fingerprint
    use csfma::hls::compile;
    let p = &solver_suite()[0];
    let kkt = KktSystem::assemble(p);
    let f = LdlFactors::factor(&kkt.matrix);
    let build = || {
        let prog = generate_ldlsolve(&f);
        compile(&prog.cdfg).expect("solver compiles")
    };
    let (a, b) = (build(), build());
    assert_eq!(a.instrs(), b.instrs());
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.num_f64_regs(), b.num_f64_regs());
    assert_eq!(a.num_cs_regs(), b.num_cs_regs());
}
