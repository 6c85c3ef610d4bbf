//! `csfma-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hls-ldlsolve|batch-fused|batch-ieee|serve-ldlsolve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is generated from `--seed`, measured for `--seconds`,
//! checked against independent references, and reported as one JSON
//! line (the last line of standard output): the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed check
//! exits with code 1. See `perfbench/README.md` for the workload table
//! and the layer-to-metric map.

mod batch;
mod graphs;
mod hlsflow;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use report::{Metric, Outcome};

pub const WORKLOADS: [&str; 4] = [
    "hls-ldlsolve",
    "batch-fused",
    "batch-ieee",
    "serve-ldlsolve",
];

/// Whether a run should repeat its set-up once more, given the set-up
/// times so far (seconds): at least 5 times, and until a second of
/// set-up has been timed (at most 25 times), so a set-up of a few
/// milliseconds still yields a steady median for `setup_s`.
pub fn more_setups(times: &[f64]) -> bool {
    times.len() < 5 || (times.iter().sum::<f64>() < 1.0 && times.len() < 25)
}

/// The per-layer metrics of `BENCHMARK.json`, in its order. Every traced
/// run reports all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hls.parser.ms", "ms"),
    ("hls.parser.us_per_req", "us"),
    ("hls.fuse.ms", "ms"),
    ("hls.fuse.passes", "count"),
    ("hls.fuse.fma_nodes", "count"),
    ("hls.sched.cycles.ldlsolve-s1", "cycles"),
    ("hls.sched.cycles.ldlsolve-s1-pcs", "cycles"),
    ("hls.sched.cycles.ldlsolve-s1-fcs", "cycles"),
    ("hls.sched.cycles.ldlsolve-s2", "cycles"),
    ("hls.sched.cycles.ldlsolve-s2-pcs", "cycles"),
    ("hls.sched.cycles.ldlsolve-s2-fcs", "cycles"),
    ("hls.sched.cycles.ldlsolve-s3", "cycles"),
    ("hls.sched.cycles.ldlsolve-s3-pcs", "cycles"),
    ("hls.sched.cycles.ldlsolve-s3-fcs", "cycles"),
    ("hls.sched.cycles.listing1-fcs", "cycles"),
    ("hls.sched.cycles.horner8-pcs", "cycles"),
    ("hls.compile.ms", "ms"),
    ("hls.compile.instrs", "count"),
    ("hls.opt.nodes_removed", "count"),
    ("hls.jit.ms", "ms"),
    ("hls.jit.rows", "count"),
    ("hls.jit.bailouts", "count"),
    ("hls.jit.useful_ratio", "ratio"),
    ("hls.eval.us_per_row.ldlsolve-s1-pcs", "us"),
    ("hls.eval.us_per_row.ldlsolve-s1-fcs", "us"),
    ("hls.eval.us_per_row.listing1-fcs", "us"),
    ("hls.eval.us_per_row.horner8-pcs", "us"),
    ("hls.eval.us_per_row.ldlsolve-s1", "us"),
    ("hls.eval.us_per_row.ldlsolve-s2", "us"),
    ("hls.eval.us_per_row.ldlsolve-s3", "us"),
    ("core.plane.lanes", "count"),
    ("core.plane.exception_lanes", "count"),
    ("core.plane.fallback_lanes", "count"),
    ("core.plane.useful_ratio", "ratio"),
    ("core.plane.transpose_share", "ratio"),
    ("units.fma_ops", "count"),
    ("softfloat.hosted_ops", "count"),
    ("softfloat.hit_ratio", "ratio"),
    ("core.batch.scaling_2t", "ratio"),
    ("core.batch.steals", "count"),
    ("hls.cache.hit_us", "us"),
    ("hls.cache.miss_us", "us"),
    ("hls.cache.hit_ratio", "ratio"),
    ("hls.robust.us_per_req", "us"),
    ("hls.robust.retries", "count"),
    ("hls.robust.quarantined_rows", "count"),
    ("serve.frame.encode_us", "us"),
    ("serve.frame.decode_us", "us"),
    ("serve.engine.us_per_req", "us"),
    ("serve.wait_us", "us"),
    ("serve.shed", "count"),
    ("serve.deadline", "count"),
    ("serve.errors", "count"),
    ("serve.queue_depth.0", "count"),
    ("serve.queue_depth.1", "count"),
    ("serve.queue_depth.2", "count"),
    ("serve.queue_depth.3", "count"),
    ("serve.queue_depth.4plus", "count"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Where the traced run writes its spans (inside the benchmark's
    /// own directory, which `.gitignore` excludes).
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Order the workload's layer metrics as `PER_LAYER`, filling 0 for the
/// layers it never calls.
fn complete_layers(o: &mut Outcome) {
    for m in &o.layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == m.name),
            "layer metric {} is missing from PER_LAYER",
            m.name
        );
    }
    o.layers = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric {
            name: (*name).into(),
            value: o
                .layers
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value),
            unit,
        })
        .collect();
}

/// `--workload all`: run each workload in its own process (so peak RSS
/// stays per workload) and print one summary line per named metric.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("the running benchmark has a path");
    let mut code = 0;
    let mut summary = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a workload run");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            code = 1;
        }
        for line in text.lines().filter(|l| l.starts_with("named ")) {
            summary.push(format!("{w:<15} {}", &line["named ".len()..]));
        }
    }
    println!(
        "# summary (seed {}, {} s per workload)",
        args.seed, args.seconds
    );
    for line in summary {
        println!("{line}");
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let started = Instant::now();
    let cpu0 = report::cpu_ticks();
    let mut o = match args.workload.as_str() {
        "hls-ldlsolve" => hlsflow::run(&args),
        "batch-fused" => batch::run(&args, batch::Kind::Fused),
        "batch-ieee" => batch::run(&args, batch::Kind::Ieee),
        "serve-ldlsolve" => serve::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    o.e2e("peak_rss_mb", report::peak_rss_mb(), "MiB");
    o.named("peak_rss_mb", report::peak_rss_mb(), "MiB");
    o.record("nproc", report::nproc().to_string());
    o.record(
        "build_profile",
        report::json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    o.record("seed", args.seed.to_string());
    o.record(
        "run_wall_s",
        report::json_num(started.elapsed().as_secs_f64()),
    );
    // the share of this VM's CPU time the host took for other guests
    // while the run was going: a validity figure for every timing
    if let (Some(a), Some(b)) = (cpu0, report::cpu_ticks()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total: u64 = d.iter().sum();
        let steal = d.get(7).copied().unwrap_or(0);
        o.record(
            "host_steal_share",
            report::json_num(steal as f64 / total.max(1) as f64),
        );
    }
    if args.trace {
        complete_layers(&mut o);
    }
    report::print(&args.workload, args.trace, &o);
    std::process::exit(if o.failed == 0 { 0 } else { 1 });
}
