//! Batch-execution throughput report: compiled tape vs scalar oracle,
//! written to `results/BENCH_throughput.json`.
//!
//! ```sh
//! cargo run -q --release -p csfma-bench --bin throughput [ROWS [SCALAR_CAP [SEED]]]
//! ```
//!
//! Defaults: 10000 rows per datapath, oracle audited on 1024 of them,
//! seed 42. Exit status 1 if any tape output diverged from the scalar
//! oracle or the headline speedup target (>= 5x, bit-accurate backend,
//! 8 threads, best graph) is missed — so CI can run a tiny smoke with
//! relaxed expectations via arguments, while the checked-in baseline is
//! regenerated with the defaults.
//!
//! The 8-thread gates are environment-aware: parallel *speedup* can only
//! be demanded of hardware that has the cores to give it. On a machine
//! with >= 8 hardware threads every bit-backend row must show
//! `speedup_8t > speedup_1t`; on smaller hosts the gate degrades to a
//! no-regression bound (`speedup_8t >= 0.75 * speedup_1t`), i.e. an
//! 8-way oversubscribed run may not pay more than 25% scheduling tax —
//! on a host where all 8 workers time-share one core, the tax is pure
//! context-switch overhead and is largest on the cheapest per-row
//! graphs.
//! Bitwise equality is gated unconditionally everywhere.

use csfma_bench::throughput::{eval_many_scenario, throughput, to_json};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let cap: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(1024);
    let seed: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(42);

    let rows_data = throughput(rows, cap, seed);
    let many = eval_many_scenario((rows / 4).max(64), seed);
    let json = to_json(&rows_data, &many, rows, seed);

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_throughput.json", &json).expect("write results");
    println!("{json}");

    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let all_equal = rows_data.iter().all(|r| r.bitwise_equal);
    let best_bit_8t = rows_data
        .iter()
        .filter(|r| r.backend == "bit")
        .map(|r| r.speedup_8t)
        .fold(0.0f64, f64::max);
    eprintln!(
        "audit: bitwise_equal={all_equal}, best bit-accurate 8-thread speedup {best_bit_8t:.1}x \
         ({hw_threads} hardware thread(s))"
    );

    // 8-thread scaling audit over every bit-backend row (module docs:
    // strict on real 8-way hardware, no-regression elsewhere)
    let mut scaling_ok = true;
    for r in rows_data.iter().filter(|r| r.backend == "bit") {
        let floor = if hw_threads >= 8 {
            r.speedup_1t
        } else {
            0.75 * r.speedup_1t
        };
        let verdict = if r.speedup_8t >= floor { "ok" } else { "FAIL" };
        eprintln!(
            "audit: {} bit 8t {:.2}x vs 1t {:.2}x (floor {:.2}x, workers {}, \
             claims {}, steals {}, chunk {} rows): {verdict}",
            r.graph,
            r.speedup_8t,
            r.speedup_1t,
            floor,
            r.steal_workers,
            r.steal_claims,
            r.steal_steals,
            r.chunk_size,
        );
        if r.speedup_8t < floor {
            scaling_ok = false;
        }
    }

    // eval_many scenario: bitwise equality is unconditional; the
    // speedup-vs-sequential bound follows the same environment rule
    let many_floor = if hw_threads >= 8 { 1.0 } else { 0.85 };
    eprintln!(
        "audit: eval_many {} request(s), {} rows, {:.2}x vs sequential (floor {many_floor:.2}x), \
         bitwise_equal={}, workers {}, claims {}, steals {}",
        many.requests,
        many.rows_total,
        many.speedup_vs_sequential,
        many.bitwise_equal,
        many.workers,
        many.claims,
        many.steals,
    );
    let many_ok = many.bitwise_equal && many.speedup_vs_sequential >= many_floor;
    if !many_ok {
        eprintln!("audit: eval_many scenario FAILED its gate");
    }

    // fused-graph regression gates, both against the same binary's scalar
    // row loop (`speedup_1t` is self-relative, so the gate holds across
    // machine speeds) and against the pre-SoA/pre-optimizer baseline
    // (checked-in BENCH_throughput.json before this engine landed):
    //
    //  * PCS datapaths must clear >= 10x single-thread — the bit-plane
    //    chunk kernel (DESIGN.md §13) makes the 64-lane word-parallel
    //    evaluation an order of magnitude faster than the scalar units.
    //  * The FCS datapath keeps the older >= 1.5x-vs-baseline floor. Its
    //    gap came from the per-lane scalar preamble, not the plane
    //    stages: the early-LZA anticipator (Sec. III-G), which PCS's
    //    zero detector never calls, was evaluated bit-serially and took
    //    about 70 % of the FCS kernel until it went limb-wise.
    const PLANE_GATE: &[(&str, f64)] = &[("listing1-pcs", 10.0), ("horner8-pcs", 10.0)];
    const BASELINE_US: &[(&str, f64)] = &[
        ("listing1-pcs", 69.9340),
        ("listing1-fcs", 88.0146),
        ("horner8-pcs", 303.2365),
    ];
    let mut fused_ok = true;
    for &(graph, baseline) in BASELINE_US {
        let Some(r) = rows_data
            .iter()
            .find(|r| r.graph == graph && r.backend == "bit")
        else {
            continue;
        };
        let us_1t = r
            .tape_us_per_row
            .iter()
            .find(|(t, _)| *t == 1)
            .map(|(_, us)| *us)
            .unwrap_or(f64::INFINITY);
        let gain = baseline / us_1t;
        eprintln!(
            "audit: {graph} bit 1t {us_1t:.2} us/row, {gain:.2}x vs baseline {baseline:.2}, \
             {:.2}x vs scalar",
            r.speedup_1t
        );
        if gain < 1.5 {
            fused_ok = false;
        }
        if let Some(&(_, floor)) = PLANE_GATE.iter().find(|(g, _)| *g == graph) {
            if r.speedup_1t < floor {
                eprintln!(
                    "audit: {graph} speedup_1t {:.2}x below plane gate {floor}x",
                    r.speedup_1t
                );
                fused_ok = false;
            }
        }
    }

    // jit-backend gate: on hosts that can build a native module at all,
    // the IEEE-graph jit rows must clear >= 5x over the scalar
    // interpreter (ISSUE 10). Bitwise equality was already gated above
    // with every other row; absent rows mean the platform (or
    // CSFMA_JIT=off) declined to JIT, which is the documented fallback.
    let mut jit_ok = true;
    if csfma_hls::jit_available() {
        for r in rows_data.iter().filter(|r| r.backend == "jit") {
            let verdict = if r.speedup_1t >= 5.0 { "ok" } else { "FAIL" };
            eprintln!(
                "audit: {} jit 1t {:.2}x vs scalar (floor 5.00x): {verdict}",
                r.graph, r.speedup_1t
            );
            if r.speedup_1t < 5.0 {
                jit_ok = false;
            }
        }
    }

    if !all_equal || best_bit_8t < 5.0 || !fused_ok || !scaling_ok || !many_ok || !jit_ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
