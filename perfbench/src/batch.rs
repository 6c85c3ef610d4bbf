//! `batch-fused` and `batch-ieee`: `Tape::eval_batch` on one worker
//! thread over a fixed job list.
//!
//! `batch-fused` runs fused carry-save tapes on the bit backend, so the
//! `core::plane` FMA lanes do the work; `batch-ieee` runs the discrete
//! `ldlsolve()` kernels on the JIT backend, where native code does the
//! work and the plane kernel does none. A pass evaluates every graph's
//! row block as fixed-size requests, one `eval_batch` call each; block
//! sizes are fixed so each graph takes an equal share of a pass at the
//! commit that introduced the benchmark. Requests of the costliest graph
//! form the latency tail, as cache misses do on `serve-ldlsolve`.

use std::time::{Duration, Instant};

use csfma_hls::{
    compile, fuse_critical_paths, parse_program, Cdfg, FmaKind, FusionConfig, PipelineReport,
    Profiler, Tape, TapeBackend,
};

use crate::graphs::{self, Kernel, Rng};
use crate::report::{self, median, ms, quantile, Outcome};
use crate::trace::Tracer;
use crate::{more_setups, Args};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fused,
    Ieee,
}

const LISTING1: &str = "x1 = a*b + c*d;\n x2 = e*f + g*x1;\n out x3 = h*i + k*x2;";
const HORNER8: &str = "p1 = c8*x + c7;\n p2 = p1*x + c6;\n p3 = p2*x + c5;\n p4 = p3*x + c4;\n \
                       p5 = p4*x + c3;\n p6 = p5*x + c2;\n p7 = p6*x + c1;\n out y = p7*x + c0;";

/// Rows per request (one `eval_batch` call): one scheduler chunk on the
/// fused tapes, four on the JIT tapes. Both are multiples of the 64-row
/// chunk, so no lane is a ragged tail.
const FUSED_REQUEST_ROWS: usize = 64;
const IEEE_REQUEST_ROWS: usize = 256;

/// One graph of the job list: how it is built, and the rows one pass
/// evaluates (a whole number of requests).
struct JobSpec {
    name: &'static str,
    /// Span name of the job's `eval_batch` call.
    span: &'static str,
    source: Source,
    rows: usize,
}

#[derive(Clone, Copy)]
enum Source {
    /// `ldlsolve()` of solver `k` (0-based), optionally fused, with
    /// real-factor rows.
    Ldl(usize, Option<FmaKind>),
    /// A fixed program fused one way, with uniform rows.
    Text(&'static str, FmaKind),
}

const FUSED_JOBS: [JobSpec; 4] = [
    JobSpec {
        name: "ldlsolve-s1-pcs",
        span: "hls.eval.ldlsolve-s1-pcs",
        source: Source::Ldl(0, Some(FmaKind::Pcs)),
        rows: 128,
    },
    JobSpec {
        name: "ldlsolve-s1-fcs",
        span: "hls.eval.ldlsolve-s1-fcs",
        source: Source::Ldl(0, Some(FmaKind::Fcs)),
        rows: 64,
    },
    JobSpec {
        name: "listing1-fcs",
        span: "hls.eval.listing1-fcs",
        source: Source::Text(LISTING1, FmaKind::Fcs),
        rows: 1280,
    },
    JobSpec {
        name: "horner8-pcs",
        span: "hls.eval.horner8-pcs",
        source: Source::Text(HORNER8, FmaKind::Pcs),
        rows: 1088,
    },
];

const IEEE_JOBS: [JobSpec; 3] = [
    JobSpec {
        name: "ldlsolve-s1",
        span: "hls.eval.ldlsolve-s1",
        source: Source::Ldl(0, None),
        rows: 9728,
    },
    JobSpec {
        name: "ldlsolve-s2",
        span: "hls.eval.ldlsolve-s2",
        source: Source::Ldl(1, None),
        rows: 3584,
    },
    JobSpec {
        name: "ldlsolve-s3",
        span: "hls.eval.ldlsolve-s3",
        source: Source::Ldl(2, None),
        rows: 2304,
    },
];

struct Job {
    spec: &'static JobSpec,
    graph: Cdfg,
    tape: Tape,
    rows: Vec<f64>,
    /// Outputs of the warm-up evaluation; every later evaluation of the
    /// same rows must reproduce them bit for bit.
    reference: Vec<f64>,
}

/// Parse, fuse and compile every graph of the job list; for the JIT
/// backend also build the native module. Returns the graphs, tapes and
/// the time the JIT build took.
fn compile_pass(
    specs: &'static [JobSpec],
    kernels: &[Kernel],
    backend: TapeBackend,
) -> (Vec<(Cdfg, Tape)>, Duration) {
    let mut jit = Duration::ZERO;
    let built = specs
        .iter()
        .map(|s| {
            let graph = match s.source {
                Source::Ldl(k, fuse) => {
                    let g = parse_program(&kernels[k].source).expect("printed kernels re-parse");
                    match fuse {
                        Some(kind) => fuse_critical_paths(&g, &FusionConfig::new(kind)).fused,
                        None => g,
                    }
                }
                Source::Text(text, kind) => {
                    let g = parse_program(text).expect("fixed programs parse");
                    fuse_critical_paths(&g, &FusionConfig::new(kind)).fused
                }
            };
            let tape = compile(&graph).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            if backend == TapeBackend::Jit {
                let t = Instant::now();
                tape.jit_module();
                jit += t.elapsed();
            }
            (graph, tape)
        })
        .collect();
    (built, jit)
}

/// Counters of one profiled pass, summed over its jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    plane_lanes: f64,
    exception_lanes: f64,
    fallback_lanes: f64,
    transpose_us: f64,
    hosted_ops: f64,
    softfloat_fallbacks: f64,
    fma_ops: f64,
    jit_rows: f64,
    jit_bailouts: f64,
    steals: f64,
}

impl Counts {
    fn add(&mut self, r: &PipelineReport) {
        let c = |name: &str| r.counter(name).unwrap_or(0.0);
        self.plane_lanes += c("plane_lanes");
        self.exception_lanes += c("plane_exception_lanes");
        self.fallback_lanes += c("plane_fallback_lanes");
        self.transpose_us += c("plane_transpose_us");
        self.hosted_ops += c("hosted_ops");
        self.softfloat_fallbacks += c("softfloat_fallbacks");
        self.fma_ops += c("fma_ops_classic") + c("fma_ops_pcs") + c("fma_ops_fcs");
        self.jit_rows += c("jit_rows");
        self.jit_bailouts += c("jit_bailouts");
        self.steals += c("sched_steals");
    }

    /// The counts the determinism check requires to repeat exactly.
    fn exact(&self) -> [f64; 3] {
        [self.fma_ops, self.plane_lanes, self.jit_rows]
    }

    fn fma_lanes(&self) -> f64 {
        self.plane_lanes + self.exception_lanes + self.fallback_lanes
    }
}

#[derive(Default)]
struct Pass {
    /// Wall time of each request's `eval_batch` call.
    job: Vec<Duration>,
    rows: usize,
    counts: Counts,
    mismatched_rows: u64,
}

impl Pass {
    fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.job.iter().sum::<Duration>().as_secs_f64()
    }
}

/// One pass over the job list in requests of `request_rows`. With
/// `profile`, each call goes through `eval_batch_profiled` and the pass
/// carries its counters.
fn pass(
    jobs: &[Job],
    backend: TapeBackend,
    request_rows: usize,
    threads: usize,
    profile: bool,
    tr: &mut Tracer,
    id: u64,
) -> Pass {
    let mut p = Pass::default();
    tr.span("pass", id, |tr| {
        for j in jobs {
            let (ni, no) = (j.tape.num_inputs(), j.tape.num_outputs());
            let requests = j.rows.chunks(request_rows * ni);
            for (rows, reference) in requests.zip(j.reference.chunks(request_rows * no)) {
                let t = Instant::now();
                let out = tr.span(j.spec.span, id, |_| {
                    if profile {
                        let mut prof = Profiler::new();
                        let out = j
                            .tape
                            .eval_batch_profiled(backend, rows, threads, &mut prof);
                        p.counts.add(&prof.finish());
                        out
                    } else {
                        j.tape.eval_batch(backend, rows, threads)
                    }
                });
                p.job.push(t.elapsed());
                p.rows += rows.len() / ni;
                p.mismatched_rows += out
                    .chunks(no)
                    .zip(reference.chunks(no))
                    .filter(|(a, b)| !graphs::same_bits(a, b))
                    .count() as u64;
            }
        }
    });
    p
}

/// Evaluation passes until `d` has elapsed. With a recording tracer,
/// every other pass is traced and profiled, so the untraced and traced
/// passes (the two returned lists) see the same stretch of host time. A
/// compile pass of the job list's graphs is interleaved whenever
/// compiling has used less than a tenth of the window so far, so
/// `compile_ms` samples that stretch too, and a host-speed probe
/// whenever probing has used less than a fiftieth.
#[allow(clippy::too_many_arguments)]
fn window(
    jobs: &[Job],
    backend: TapeBackend,
    request_rows: usize,
    tr: &mut Tracer,
    d: Duration,
    (specs, kernels): (&'static [JobSpec], &[Kernel]),
    compile_ms: &mut Vec<f64>,
    probes: &mut Vec<f64>,
) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut compiling = Duration::ZERO;
    let mut probing = 0.0;
    let mut id = 0;
    while start.elapsed() < d {
        if tr.is_on() && id % 2 == 1 {
            traced.push(pass(jobs, backend, request_rows, 1, true, tr, id));
        } else {
            let off = &mut Tracer::off();
            untraced.push(pass(jobs, backend, request_rows, 1, false, off, id));
        }
        id += 1;
        if compiling < start.elapsed() / 10 {
            let t = Instant::now();
            let _ = compile_pass(specs, kernels, backend);
            compiling += t.elapsed();
            compile_ms.push(ms(t.elapsed()));
        }
        if probing < ms(start.elapsed()) / 50.0 {
            probes.push(graphs::probe_ms());
            probing += probes[probes.len() - 1];
        }
    }
    (untraced, traced)
}

fn check_rows<'a>(o: &mut Outcome, passes: impl IntoIterator<Item = &'a Pass>) {
    for p in passes {
        o.check(p.rows as u64, p.mismatched_rows, || {
            "rows differ from the warm-up evaluation of the same inputs".into()
        });
    }
}

pub fn run(args: &Args, kind: Kind) -> Outcome {
    let mut o = Outcome::default();
    let (specs, backend, request_rows): (&'static [JobSpec], _, _) = match kind {
        Kind::Fused => (&FUSED_JOBS, TapeBackend::BitAccurate, FUSED_REQUEST_ROWS),
        Kind::Ieee => (&IEEE_JOBS, TapeBackend::Jit, IEEE_REQUEST_ROWS),
    };

    let mut setup_s = Vec::new();
    let mut jit_ms = Vec::new();
    let mut jobs = Vec::new();
    let mut kernels = Vec::new();
    while more_setups(&setup_s) {
        jobs.clear();
        let t = Instant::now();
        kernels = graphs::ldl_kernels(if kind == Kind::Ieee { 3 } else { 1 });
        let (built, jit) = compile_pass(specs, &kernels, backend);
        jit_ms.push(ms(jit));
        let mut rng = Rng::new(args.seed, 2);
        jobs = specs
            .iter()
            .zip(built)
            .map(|(spec, (graph, tape))| {
                let rows = match spec.source {
                    Source::Ldl(k, _) => kernels[k].rows(tape.input_names(), spec.rows, &mut rng),
                    Source::Text(..) => {
                        graphs::uniform_rows(tape.num_inputs(), spec.rows, &mut rng)
                    }
                };
                let reference = tape.eval_batch(backend, &rows, 1);
                Job {
                    spec,
                    graph,
                    tape,
                    rows,
                    reference,
                }
            })
            .collect::<Vec<_>>();
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut compile_ms = Vec::new();
    let mut probes = Vec::new();
    let mut tr = Tracer::new(args.trace, Instant::now());
    let (untraced, traced) = window(
        &jobs,
        backend,
        request_rows,
        &mut tr,
        args.window(),
        (specs, &kernels),
        &mut compile_ms,
        &mut probes,
    );
    let k = report::speed_scale(&probes);
    o.record("host_speed_scale", report::json_num(k));
    check_rows(&mut o, &untraced);
    let rows_per_s = median(&untraced.iter().map(Pass::rows_per_s).collect::<Vec<_>>());
    let job_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.job.iter().map(|d| ms(*d)))
        .collect();

    let cycles: u32 = jobs.iter().map(|j| graphs::cycles(&j.graph)).sum();
    o.e2e("setup_s", median(&setup_s), "s");
    o.e2e("datapath_cycles", cycles as f64, "cycles");
    o.e2e("compile_ms", median(&compile_ms) * k, "ms");
    o.e2e("throughput", rows_per_s / k, "1/s");
    o.e2e("p50_ms", median(&job_ms) * k, "ms");
    o.record("request_p99_ms", report::json_num(quantile(&job_ms, 0.99)));
    o.named("setup_s", median(&setup_s), "s");
    o.named("rows_per_s", rows_per_s, "rows/s");
    o.record("threads", "1");
    o.record("connections", "0");
    o.record("passes", untraced.len().to_string());
    o.record("request_samples", job_ms.len().to_string());
    o.record("request_rows", request_rows.to_string());
    let rows: Vec<String> = jobs
        .iter()
        .map(|j| format!("\"{}\": {}", j.spec.name, j.spec.rows))
        .collect();
    o.record("rows_per_pass", format!("{{{}}}", rows.join(", ")));
    o.record(
        "why",
        report::json_str(match kind {
            Kind::Fused => {
                "carry-save FMA lanes through core::plane dominate; includes ROADMAP item 5's \
                 listing1-fcs and horner8-pcs; the JIT never runs (fused tapes refuse it)"
            }
            Kind::Ieee => {
                "native JIT code does the work and the plane kernel none; kept apart from \
                 batch-fused so a change that speeds one eval path and slows the other shows on both"
            }
        }),
    );

    // determinism: two profiled passes must give the same exact counts
    let a = pass(&jobs, backend, request_rows, 1, true, &mut Tracer::off(), 0);
    let b = pass(&jobs, backend, request_rows, 1, true, &mut Tracer::off(), 0);
    check_rows(&mut o, [&a, &b]);
    o.require(a.counts.exact() == b.counts.exact(), || {
        format!(
            "exact counts (fma ops, plane lanes, jit rows) changed between passes: {:?} vs {:?}",
            a.counts.exact(),
            b.counts.exact()
        )
    });
    let c = a.counts;
    // provenance: the input property each batch workload depends on
    o.record(
        "plane_fallback_share",
        report::json_num(if c.fma_lanes() > 0.0 {
            c.fallback_lanes / c.fma_lanes()
        } else {
            0.0
        }),
    );
    o.record(
        "jit_bailout_share",
        report::json_num(if c.jit_rows > 0.0 {
            c.jit_bailouts / c.jit_rows
        } else {
            0.0
        }),
    );

    if args.trace {
        check_rows(&mut o, &traced);
        for p in &traced {
            o.require(p.counts.exact() == c.exact(), || {
                "exact counts changed in the traced window".into()
            });
        }
        let layers = tr.layers();
        let n = traced.len().max(1) as f64;
        for j in &jobs {
            let self_us = layers
                .get(j.spec.span)
                .map_or(0.0, |l| l.self_ns as f64 / 1e3);
            o.layer(
                &format!("hls.eval.us_per_row.{}", j.spec.name),
                self_us / (n * j.spec.rows as f64),
                "us",
            );
        }
        let eval_us: f64 = jobs
            .iter()
            .map(|j| {
                layers
                    .get(j.spec.span)
                    .map_or(0.0, |l| l.total_ns as f64 / 1e3)
            })
            .sum();
        let transpose_us: f64 = traced.iter().map(|p| p.counts.transpose_us).sum();
        o.layer("core.plane.lanes", c.plane_lanes, "count");
        o.layer("core.plane.exception_lanes", c.exception_lanes, "count");
        o.layer("core.plane.fallback_lanes", c.fallback_lanes, "count");
        if c.fma_lanes() > 0.0 {
            o.layer(
                "core.plane.useful_ratio",
                c.plane_lanes / c.fma_lanes(),
                "ratio",
            );
        }
        o.layer(
            "core.plane.transpose_share",
            transpose_us / eval_us,
            "ratio",
        );
        o.layer("units.fma_ops", c.fma_ops, "count");
        o.layer("softfloat.hosted_ops", c.hosted_ops, "count");
        if c.hosted_ops > 0.0 {
            o.layer(
                "softfloat.hit_ratio",
                1.0 - c.softfloat_fallbacks.min(c.hosted_ops) / c.hosted_ops,
                "ratio",
            );
        }
        if kind == Kind::Ieee {
            o.layer("hls.jit.ms", median(&jit_ms), "ms");
            o.layer("hls.jit.rows", c.jit_rows, "count");
            o.layer("hls.jit.bailouts", c.jit_bailouts, "count");
            if c.jit_rows > 0.0 {
                o.layer(
                    "hls.jit.useful_ratio",
                    1.0 - c.jit_bailouts / c.jit_rows,
                    "ratio",
                );
            }
        }

        // thread scaling, alternating 1 and 2 workers
        let threads = 2.min(report::nproc());
        let (mut ratio, mut steals) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            // whole blocks per call, so a second worker has chunks to take
            let one = pass(&jobs, backend, 1 << 20, 1, true, &mut Tracer::off(), 0);
            let two = pass(
                &jobs,
                backend,
                1 << 20,
                threads,
                true,
                &mut Tracer::off(),
                0,
            );
            ratio.push(two.rows_per_s() / one.rows_per_s());
            steals.push(two.counts.steals);
            check_rows(&mut o, [&one, &two]);
        }
        o.layer("core.batch.scaling_2t", median(&ratio), "ratio");
        o.layer("core.batch.steals", median(&steals), "count");
        o.record("scaling_threads", threads.to_string());

        let whole = layers.get("pass").map_or(0, |l| l.total_ns) as f64;
        let residual = layers.get("pass").map_or(0, |l| l.self_ns) as f64;
        o.layer("trace.residual_share", residual / whole, "ratio");
        let traced_rps = median(&traced.iter().map(Pass::rows_per_s).collect::<Vec<_>>());
        o.layer(
            "trace.overhead_share",
            rows_per_s / traced_rps - 1.0,
            "ratio",
        );
        o.layer("trace.spans", tr.len() as f64, "count");
        if let Err(e) = tr.write_jsonl(&args.trace_path()) {
            o.problems.push(format!("writing the trace: {e}"));
        }
    }

    // bitwise audit against the graph interpreter, on the backend under test
    for j in &jobs {
        let picked = graphs::audit_rows(j.spec.rows, 8);
        let bad = graphs::audit(&j.graph, &j.tape, backend, &j.rows, &picked);
        o.check(picked.len() as u64, bad as u64, || {
            format!(
                "{} on {backend:?} differs from eval_bit_accurate",
                j.spec.name
            )
        });
    }
    o
}
