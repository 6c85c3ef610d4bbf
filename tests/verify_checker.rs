//! Workspace-level tests of the `csfma-verify` static checker:
//!
//! * a property test that the outputs of the fusion pass *always* pass
//!   all three checker passes on random CDFGs, and
//! * mutation tests seeding one specific violation per checker pass and
//!   asserting the exact rule fires (the checker is only trustworthy if
//!   it rejects what it is supposed to reject).

use csfma_core::{CsFmaFormat, Normalizer};
use csfma_hls::cdfg::{Cdfg, FmaKind, NodeId, Op};
use csfma_hls::{
    asap_schedule, compile, fuse_critical_paths, lint_dataflow, lint_schedule, list_schedule,
    FusionConfig, OpTiming, ResourceLimits,
};
use csfma_verify::{check_format, has_errors, render_report, Rule, ScheduleView, Severity, Span};
use proptest::prelude::*;

/// Build a random (but always valid) straight-line datapath from an
/// opcode/operand stream, divisions included.
fn build_random_cdfg(ops: &[(usize, usize, usize)]) -> Cdfg {
    let mut g = Cdfg::new();
    let mut pool: Vec<NodeId> = (0..4).map(|i| g.input(format!("v{i}"))).collect();
    pool.push(g.constant(1.5));
    pool.push(g.constant(-2.0));
    for &(op, i1, i2) in ops {
        let x = pool[i1 % pool.len()];
        let y = pool[i2 % pool.len()];
        let id = match op {
            0 => g.add(x, y),
            1 => g.sub(x, y),
            2 | 3 => g.mul(x, y),
            4 => g.div(x, y),
            _ => g.push(Op::Neg, vec![x]),
        };
        pool.push(id);
    }
    g.output("y", *pool.last().unwrap());
    g
}

fn assert_lint_clean(g: &Cdfg, t: &OpTiming, what: &str) {
    let diags = lint_dataflow(g, t);
    assert!(
        !has_errors(&diags),
        "{what}: dataflow errors\n{}",
        render_report(&diags)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pipeline outputs always satisfy the checker: both fusion results
    /// and the schedules computed for them — on random graphs, under
    /// random resource limits.
    #[test]
    fn prop_pipeline_outputs_pass_all_checker_passes(
        ops in prop::collection::vec((0usize..6, 0usize..32, 0usize..32), 3..24),
        mul_cap in 1usize..4,
        fma_cap in 1usize..4,
    ) {
        let t = OpTiming::default();
        let g = build_random_cdfg(&ops);
        assert_lint_clean(&g, &t, "random source graph");

        for kind in [FmaKind::Pcs, FmaKind::Fcs] {
            let fused = fuse_critical_paths(&g, &FusionConfig::new(kind)).fused;
            assert_lint_clean(&fused, &t, "fusion output");

            // pass 2: the unconstrained schedule is hazard-free...
            let unbounded = ResourceLimits::default();
            let s = asap_schedule(&fused, &t);
            let diags = lint_schedule(&fused, &t, &s, &unbounded);
            prop_assert!(diags.is_empty(), "asap hazards:\n{}", render_report(&diags));

            // ...and the list schedule respects the limits it was given
            let limits = ResourceLimits {
                mul: Some(mul_cap),
                add: Some(1),
                fma: Some(fma_cap),
                ..Default::default()
            };
            let ls = list_schedule(&fused, &t, &limits);
            let diags = lint_schedule(&fused, &t, &ls, &limits);
            prop_assert!(diags.is_empty(), "list hazards:\n{}", render_report(&diags));
        }

        // pass 3: the formats the fusion pass targets are statically sound
        prop_assert!(csfma_verify::check_standard_formats().is_empty());
    }
}

// ---------------------------------------------------------------------
// Mutation tests: seed one violation per pass, assert the rule fires.
// ---------------------------------------------------------------------

/// Pass 1 mutation: a domain-mismatched edge (an IEEE adder consuming a
/// raw carry-save value) must trip `D003 domain-mismatch`.
#[test]
fn mutation_domain_mismatched_edge_fires_d003() {
    let t = OpTiming::default();
    let mut g = Cdfg::new();
    let a = g.input("a");
    let cs = g.push(Op::IeeeToCs(FmaKind::Pcs), vec![a]);
    let bad = g.push_unchecked(Op::Add, vec![cs, a]);
    g.push_unchecked(Op::Output("y".into()), vec![bad]);

    let diags = lint_dataflow(&g, &t);
    assert!(has_errors(&diags), "{}", render_report(&diags));
    let hit = diags
        .iter()
        .find(|d| d.rule == Rule::DomainMismatch)
        .unwrap_or_else(|| panic!("no D003 in:\n{}", render_report(&diags)));
    assert_eq!(hit.severity, Severity::Error);
    assert_eq!(hit.rule.id(), "D003");
    // the graph's own validator reports the same rule
    let own = g.validate_diagnostics().unwrap_err();
    assert!(own.iter().any(|d| d.rule == Rule::DomainMismatch));
}

/// A carry-save port fed the other unit's format is a `D003` too: PCS
/// and FCS words have different carry geometries, so the compile gate
/// must refuse the graph before any backend reads one as the other.
#[test]
fn mutation_cross_kind_carry_save_edge_fires_d003() {
    let mut g = Cdfg::new();
    let a = g.input("a");
    let b = g.input("b");
    let c = g.input("c");
    let a_cs = g.push(Op::IeeeToCs(FmaKind::Fcs), vec![a]);
    let c_cs = g.push(Op::IeeeToCs(FmaKind::Pcs), vec![c]);
    let fma = g.push(
        Op::Fma {
            kind: FmaKind::Pcs,
            negate_b: false,
        },
        vec![a_cs, b, c_cs],
    );
    let y = g.push(Op::CsToIeee(FmaKind::Pcs), vec![fma]);
    g.output("y", y);

    let err = compile(&g).expect_err("a cross-kind edge must not compile");
    let d = &err.diagnostics;
    assert_eq!(d.len(), 1, "{}", render_report(d));
    assert_eq!(d[0].rule.id(), "D003");
    assert_eq!(d[0].span, Span::Edge { user: fma, arg: 0 });
}

/// Pass 2 mutation: a hand-built schedule that fires the adder before the
/// multiplier's 5-cycle latency has elapsed must trip `S001
/// premature-start`, and overloading one multiplier must trip `S003`.
#[test]
fn mutation_early_fired_node_fires_s001() {
    let t = OpTiming::default();
    let mut g = Cdfg::new();
    let a = g.input("a");
    let b = g.input("b");
    let m = g.mul(a, b);
    let m2 = g.mul(b, b);
    let s = g.add(m, m2);
    g.output("y", s);

    let good = asap_schedule(&g, &t);
    assert!(lint_schedule(&g, &t, &good, &ResourceLimits::default()).is_empty());

    // corrupt the schedule: the add starts at cycle 2, mid-multiply
    let mut bad = good.clone();
    bad.start[s] = 2;
    let diags = lint_schedule(&g, &t, &bad, &ResourceLimits::default());
    assert!(has_errors(&diags), "{}", render_report(&diags));
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::PrematureStart && d.rule.id() == "S001"),
        "{}",
        render_report(&diags)
    );

    // both multiplies start at cycle 0: fine with 2 units, S003 with 1
    let limits = ResourceLimits {
        mul: Some(1),
        ..Default::default()
    };
    let diags = lint_schedule(&g, &t, &good, &limits);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::ResourceOverflow && d.rule.id() == "S003"),
        "{}",
        render_report(&diags)
    );

    // a truncated schedule view trips S002
    let view = ScheduleView {
        start: good.start.iter().map(|&c| Some(c)).collect::<Vec<_>>()[..g.len() - 1].to_vec(),
        length: good.length,
    };
    let cg = csfma_hls::to_check_graph(&g, &t);
    let diags = csfma_verify::check_schedule(&cg, &view, &[]);
    assert!(diags.iter().any(|d| d.rule == Rule::Unscheduled));
}

/// Pass 3 mutation: an insufficient-guard-bit configuration must trip
/// `W001 guard-headroom`, and the LZA-on-55-bit-blocks configuration —
/// the exact mistake the paper's 58-bit widening prevents — must trip
/// `W003 significand-coverage`.
#[test]
fn mutation_insufficient_guard_bits_fires_w001_and_w003() {
    // no left headroom: the window ends one digit above the product, so
    // the compressor tree's redundant sign has nowhere to live
    let cramped = CsFmaFormat {
        name: "mutation-no-headroom",
        block_bits: 28,
        mant_blocks: 2,
        left_blocks: 0,
        right_blocks: 1,
        carry_spacing: Some(14),
        normalizer: Normalizer::ZeroDetect,
        b_sig_bits: 27,
    };
    let diags = check_format(&cramped);
    assert!(has_errors(&diags), "{}", render_report(&diags));
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::GuardHeadroom && d.rule.id() == "W001"),
        "{}",
        render_report(&diags)
    );

    // early LZA strapped onto 55-bit blocks: 56 - 3 = 53 guaranteed
    // digits < 53 significand + 2 margin
    let narrow_lza = CsFmaFormat {
        normalizer: Normalizer::EarlyLza,
        ..CsFmaFormat::PCS_55_ZD
    };
    let diags = check_format(&narrow_lza);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::SignificandCoverage && d.rule.id() == "W003"),
        "{}",
        render_report(&diags)
    );

    // the carry-spacing rule (DESIGN.md §7.4): 10 does not divide 55
    let skewed = CsFmaFormat {
        carry_spacing: Some(10),
        ..CsFmaFormat::PCS_55_ZD
    };
    let diags = check_format(&skewed);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == Rule::CarrySpacing && d.rule.id() == "W002"),
        "{}",
        render_report(&diags)
    );

    // and the shipped design points remain clean
    assert!(csfma_verify::check_standard_formats().is_empty());
}

/// The batch compiler is gated on the checker: a graph carrying an
/// error-severity dataflow finding must be refused with a structured
/// `CompileError` naming the rule — never silently lowered to a tape.
#[test]
fn compile_gate_refuses_dataflow_errors() {
    use csfma_hls::{compile, compile_cached};

    // D001: one-armed adder planted behind the validator's back
    let mut g = Cdfg::new();
    let a = g.input("a");
    g.push_unchecked(Op::Add, vec![a]);
    let err = compile(&g).expect_err("arity violation must refuse to compile");
    assert!(err
        .diagnostics
        .iter()
        .all(|d| d.severity == Severity::Error));
    assert!(
        err.diagnostics.iter().any(|d| d.rule.id() == "D001"),
        "{err}"
    );
    assert!(compile_cached(&g).is_err(), "cache must not mask the gate");

    // D003: IEEE adder consuming a carry-save producer
    let mut g = Cdfg::new();
    let a = g.input("a");
    let cs = g.push_unchecked(Op::IeeeToCs(FmaKind::Pcs), vec![a]);
    let bad = g.push_unchecked(Op::Add, vec![a, cs]);
    g.push_unchecked(Op::Output("y".into()), vec![bad]);
    let err = compile(&g).expect_err("domain mismatch must refuse to compile");
    assert!(
        err.diagnostics.iter().any(|d| d.rule.id() == "D003"),
        "{err}"
    );
}

/// The `W*` width rules gate compilation when the graph actually uses a
/// fused format: a cramped geometry refuses, a single-precision `B`
/// refuses with W006 (the tape feeds `B` from binary64), the standard
/// formats compile.
#[test]
fn compile_gate_refuses_broken_formats() {
    use csfma_hls::{compile_with, CompileOptions, Profiler};
    let with_pcs = |g: &Cdfg, pcs_format: CsFmaFormat| {
        let opts = CompileOptions {
            pcs_format,
            ..CompileOptions::default()
        };
        compile_with(g, opts, &mut Profiler::disabled())
    };
    let with_fcs = |g: &Cdfg, fcs_format: CsFmaFormat| {
        let opts = CompileOptions {
            fcs_format,
            ..CompileOptions::default()
        };
        compile_with(g, opts, &mut Profiler::disabled())
    };

    let g = csfma_hls::parse_program("x1 = a*b + c*d;\n out x3 = e*f + g*x1;").unwrap();
    let fused = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs)).fused;
    assert!(
        fused.count_ops(|o| matches!(o, Op::Fma { .. })) > 0,
        "fusion must have inserted an FMA for the gate to be exercised"
    );

    let cramped = CsFmaFormat {
        name: "gate-mutation-no-headroom",
        block_bits: 28,
        mant_blocks: 2,
        left_blocks: 0,
        right_blocks: 1,
        carry_spacing: Some(14),
        normalizer: Normalizer::ZeroDetect,
        b_sig_bits: 27,
    };
    let err = with_pcs(&fused, cramped).expect_err("W-rule errors must refuse to compile");
    assert!(
        err.diagnostics.iter().any(|d| d.rule.id().starts_with('W')),
        "{err}"
    );

    // the same graph with the shipped formats compiles
    compile_with(&fused, CompileOptions::default(), &mut Profiler::disabled())
        .expect("standard formats are clean");

    // a discrete graph never touches the formats, so even a broken PCS
    // geometry is irrelevant to it — the gate only fires on use
    with_pcs(&g, cramped).expect("unused formats must not gate a discrete graph");

    // W006: the shipped single-precision formats pass every geometry
    // rule, but a tape would feed them 53-bit `B` operands
    let fused_fcs = fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs)).fused;
    assert!(fused_fcs.count_ops(|o| matches!(o, Op::Fma { .. })) > 0);
    for err in [
        with_pcs(&fused, CsFmaFormat::PCS_27_SP).expect_err("PCS_27_SP must refuse"),
        with_fcs(&fused_fcs, CsFmaFormat::FCS_15_SP).expect_err("FCS_15_SP must refuse"),
    ] {
        assert_eq!(err.diagnostics.len(), 1, "{err}");
        assert_eq!(err.diagnostics[0].rule, Rule::BWidthMismatch, "{err}");
        assert_eq!(err.diagnostics[0].rule.id(), "W006");
    }
    with_pcs(&g, CsFmaFormat::PCS_27_SP).expect("a discrete graph ignores the B width");
}

/// The `S*` schedule-hazard rules refuse a schedule that overloads the
/// declared resources — a miscompilation risk for the hardware a tape
/// stands in for. A tape for a concrete schedule is `compile` followed
/// by `lint_schedule`.
#[test]
fn compile_gate_refuses_hazardous_schedules() {
    use csfma_hls::compile;

    let t = OpTiming::default();
    let mut g = Cdfg::new();
    let a = g.input("a");
    let b = g.input("b");
    let m = g.mul(a, b);
    let m2 = g.mul(b, b);
    let s = g.add(m, m2);
    g.output("y", s);
    compile(&g).expect("the graph itself is clean");

    let asap = asap_schedule(&g, &t);
    let one_mul = ResourceLimits {
        mul: Some(1),
        ..Default::default()
    };
    // both multiplies at cycle 0 with one declared multiplier: S003
    let diags = lint_schedule(&g, &t, &asap, &one_mul);
    assert!(
        has_errors(&diags),
        "resource overflow must refuse the schedule"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.rule.id() == "S003"),
        "{}",
        render_report(&diags)
    );

    // the list scheduler respects the limit; the same gate passes
    let listed = list_schedule(&g, &t, &one_mul);
    let diags = lint_schedule(&g, &t, &listed, &one_mul);
    assert!(
        !has_errors(&diags),
        "resource-feasible schedule must pass: {}",
        render_report(&diags)
    );
}
