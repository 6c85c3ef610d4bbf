//! `hls-ldlsolve`: the paper's Sec. III-I flow on its Sec. IV-D kernels.
//!
//! A pass parses the three printed `ldlsolve()` kernels, derives three
//! programs from each (discrete, and `fuse_critical_paths` PCS and FCS),
//! compiles all nine with the uncached `compile`, and runs
//! `compile_module` on the three discrete tapes. Fusion dominates a pass,
//! so fusion, scheduler and optimizer changes show here.

use std::time::{Duration, Instant};

use csfma_hls::{
    compile, compile_module, fuse_critical_paths, jit_available, parse_program, Cdfg, FmaKind,
    FusionConfig, JitSemantics, Tape, TapeBackend,
};

use crate::graphs::{self, Kernel, Rng};
use crate::report::{self, median, ms, quantile, Outcome};
use crate::trace::Tracer;
use crate::{more_setups, Args};

/// EXPERIMENTS.md, Fig. 15: ASAP cycles per solver, discrete / PCS / FCS.
const FIG15: [[u32; 3]; 3] = [[177, 137, 111], [353, 265, 207], [529, 393, 303]];
const FORMS: [&str; 3] = ["", "-pcs", "-fcs"];

#[derive(Default)]
struct Pass {
    wall: Duration,
    /// Per-program latency: parse + compile + JIT for the discrete
    /// program, fuse + compile for the fused ones.
    program_ms: Vec<f64>,
    cycles: Vec<u32>,
    fuse_passes: usize,
    fma_nodes: usize,
    instrs: usize,
    nodes_removed: usize,
    /// Programs that failed to parse, compile or JIT.
    broken: Vec<String>,
    /// The nine compiled programs, kept for the audit.
    kept: Vec<Kept>,
}

struct Kept {
    kernel: usize,
    name: String,
    discrete: bool,
    graph: Cdfg,
    tape: Tape,
}

fn pass(kernels: &[Kernel], tr: &mut Tracer, id: u64, keep: bool) -> Pass {
    let t0 = Instant::now();
    let mut p = Pass::default();
    let jit = jit_available();
    tr.span("pass", id, |tr| {
        for (ki, k) in kernels.iter().enumerate() {
            let t = Instant::now();
            let g = match tr.span("hls.parser", id, |_| parse_program(&k.source)) {
                Ok(g) => g,
                Err(e) => {
                    p.broken.push(format!("{}: parse: {e}", k.name));
                    continue;
                }
            };
            let parse = t.elapsed();
            let pcs = tr.span("hls.fuse", id, |_| {
                fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Pcs))
            });
            let pcs_ms = ms(t.elapsed() - parse);
            let t = Instant::now();
            let fcs = tr.span("hls.fuse", id, |_| {
                fuse_critical_paths(&g, &FusionConfig::new(FmaKind::Fcs))
            });
            let fcs_ms = ms(t.elapsed());
            p.cycles
                .extend([pcs.initial_length, pcs.final_length, fcs.final_length]);
            p.fuse_passes += pcs.passes + fcs.passes;
            p.fma_nodes += pcs.fma_nodes + fcs.fma_nodes;
            let programs = [(g, ms(parse)), (pcs.fused, pcs_ms), (fcs.fused, fcs_ms)];
            for (form, (graph, before_ms)) in FORMS.iter().zip(programs) {
                let name = format!("{}{form}", k.name);
                let t = Instant::now();
                let tape = match tr.span("hls.compile", id, |_| compile(&graph)) {
                    Ok(tape) => tape,
                    Err(e) => {
                        p.broken.push(format!("{name}: compile: {e}"));
                        continue;
                    }
                };
                if form.is_empty() {
                    let module =
                        tr.span("hls.jit", id, |_| compile_module(&tape, JitSemantics::Bit));
                    if jit && module.is_none() {
                        p.broken
                            .push(format!("{name}: compile_module refused the tape"));
                    }
                }
                p.program_ms.push(before_ms + ms(t.elapsed()));
                p.instrs += tape.instrs().len();
                let opt = tape.opt_stats();
                p.nodes_removed += opt.nodes_before.saturating_sub(opt.nodes_after);
                if keep {
                    p.kept.push(Kept {
                        kernel: ki,
                        name,
                        discrete: form.is_empty(),
                        graph,
                        tape,
                    });
                }
            }
        }
    });
    p.wall = t0.elapsed();
    p
}

/// Check one pass against the Fig. 15 table and against the first
/// pass's exact counts.
fn check(o: &mut Outcome, p: &Pass, first: &Pass, names: &[String]) {
    o.check(9, p.broken.len() as u64, || p.broken.join("; "));
    let want: Vec<u32> = FIG15.iter().flatten().copied().collect();
    let bad = p
        .cycles
        .iter()
        .zip(&want)
        .filter(|(got, want)| got != want)
        .count()
        + want.len().saturating_sub(p.cycles.len());
    if bad > 0 {
        o.failed += bad as u64;
        o.problems.push(format!(
            "schedule lengths {:?} differ from Fig. 15 {:?} ({})",
            p.cycles,
            want,
            names.join(", ")
        ));
    }
    o.require(
        p.cycles == first.cycles
            && p.fuse_passes == first.fuse_passes
            && p.instrs == first.instrs,
        || {
            format!(
                "exact counts changed between passes: cycles {:?}/{:?}, fusion passes {}/{}, instrs {}/{}",
                first.cycles, p.cycles, first.fuse_passes, p.fuse_passes, first.instrs, p.instrs
            )
        },
    );
}

/// Run passes until `d` has elapsed, each followed by a host-speed
/// probe. With a recording tracer, every other pass is traced, so the
/// untraced and traced passes (the two returned lists) see the same
/// stretch of host time.
fn window(
    kernels: &[Kernel],
    tr: &mut Tracer,
    d: Duration,
    probes: &mut Vec<f64>,
) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut id = 1;
    while start.elapsed() < d {
        probes.push(graphs::probe_ms());
        if tr.is_on() && id % 2 == 0 {
            traced.push(pass(kernels, tr, id, false));
        } else {
            untraced.push(pass(kernels, &mut Tracer::off(), id, false));
        }
        id += 1;
    }
    (untraced, traced)
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let names: Vec<String> = (1..=3)
        .flat_map(|s| FORMS.iter().map(move |f| format!("ldlsolve-s{s}{f}")))
        .collect();

    let mut setup_s = Vec::new();
    let mut setup = None;
    while more_setups(&setup_s) {
        drop(setup.take());
        let t = Instant::now();
        let kernels = graphs::ldl_kernels(3);
        let warm = pass(&kernels, &mut Tracer::off(), 0, true);
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some((kernels, warm));
    }
    let (kernels, first) = setup.expect("set-up runs at least once");
    check(&mut o, &first, &first, &names);

    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut probes = Vec::new();
    let (untraced, traced) = window(&kernels, &mut tr, args.window(), &mut probes);
    let k = report::speed_scale(&probes);
    o.record("host_speed_scale", report::json_num(k));
    for p in untraced.iter().chain(&traced) {
        check(&mut o, p, &first, &names);
    }

    let pass_ms: Vec<f64> = untraced.iter().map(|p| ms(p.wall)).collect();
    let program_ms: Vec<f64> = untraced.iter().flat_map(|p| p.program_ms.clone()).collect();
    let total_s: f64 = untraced.iter().map(|p| p.wall.as_secs_f64()).sum();
    let programs: usize = untraced.iter().map(|p| p.program_ms.len()).sum();
    let cycles: u32 = first.cycles.iter().sum();
    let compile_ms = median(&pass_ms);

    o.e2e("setup_s", median(&setup_s), "s");
    o.e2e("datapath_cycles", cycles as f64, "cycles");
    o.e2e("compile_ms", compile_ms * k, "ms");
    o.e2e("throughput", programs as f64 / total_s / k, "1/s");
    o.e2e("p50_ms", median(&program_ms) * k, "ms");
    o.record(
        "program_p99_ms",
        report::json_num(quantile(&program_ms, 0.99)),
    );
    o.named("setup_s", median(&setup_s), "s");
    o.named("compile_ms", compile_ms, "ms");
    o.named("datapath_cycles", cycles as f64, "cycles");
    o.record("threads", "1");
    o.record("connections", "0");
    o.record("passes", untraced.len().to_string());
    o.record("program_samples", program_ms.len().to_string());
    o.record("jit_available", jit_available().to_string());
    o.record(
        "why",
        report::json_str(
            "the paper's Sec. III-I flow on its Sec. IV-D kernels; fusion dominates a pass, \
             so fusion, scheduler and optimizer changes show here and almost nowhere else",
        ),
    );

    if args.trace {
        let n = traced.len().max(1) as f64;
        let layers = tr.layers();
        let per_pass = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e6 / n);
        o.layer("hls.parser.ms", per_pass("hls.parser"), "ms");
        o.layer("hls.fuse.ms", per_pass("hls.fuse"), "ms");
        o.layer("hls.compile.ms", per_pass("hls.compile"), "ms");
        o.layer("hls.jit.ms", per_pass("hls.jit"), "ms");
        o.layer("hls.fuse.passes", first.fuse_passes as f64, "count");
        o.layer("hls.fuse.fma_nodes", first.fma_nodes as f64, "count");
        o.layer("hls.compile.instrs", first.instrs as f64, "count");
        o.layer("hls.opt.nodes_removed", first.nodes_removed as f64, "count");
        for (name, c) in names.iter().zip(&first.cycles) {
            o.layer(&format!("hls.sched.cycles.{name}"), *c as f64, "cycles");
        }
        let whole = layers.get("pass").map_or(0, |l| l.total_ns) as f64;
        let residual = layers.get("pass").map_or(0, |l| l.self_ns) as f64;
        o.layer("trace.residual_share", residual / whole, "ratio");
        let traced_ms: Vec<f64> = traced.iter().map(|p| ms(p.wall)).collect();
        o.layer(
            "trace.overhead_share",
            median(&traced_ms) / compile_ms - 1.0,
            "ratio",
        );
        o.layer("trace.spans", tr.len() as f64, "count");
        if let Err(e) = tr.write_jsonl(&args.trace_path()) {
            o.problems.push(format!("writing the trace: {e}"));
        }
    }

    // bitwise audit of every program on every backend it runs on,
    // against the graph interpreter
    let mut rng = Rng::new(args.seed, 1);
    for k in &first.kept {
        let rows = kernels[k.kernel].rows(k.tape.input_names(), 4, &mut rng);
        let all: Vec<usize> = (0..4).collect();
        let mut backends = vec![TapeBackend::BitAccurate];
        if k.discrete {
            backends.push(TapeBackend::Jit);
        }
        for b in backends {
            let bad = graphs::audit(&k.graph, &k.tape, b, &rows, &all);
            o.check(4, bad as u64, || {
                format!("{} on {b:?} differs from eval_bit_accurate", k.name)
            });
        }
    }
    o
}
