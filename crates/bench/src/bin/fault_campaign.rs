//! Fault-injection campaign report: sweep every fault site over the
//! fused Listing 1 datapath, written to `results/BENCH_faults.json`.
//!
//! ```sh
//! cargo run -q --release -p csfma-bench --bin fault_campaign [ROWS [SEED]]
//! ```
//!
//! Defaults: 2000 rows per site, seed 42. Exit status 1 when the gate
//! fails: any silent corruption or a detection rate below 90% on a
//! checker-covered site, or any thread-count variance (DESIGN.md §10).

use csfma_bench::fault::{run_campaign, to_json};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let rows: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(2000);
    let seed: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(42);

    // injected executor panics are caught and recovered by the robust
    // engine; keep their backtraces off the terminal
    std::panic::set_hook(Box::new(|_| {}));
    let campaign = run_campaign(rows, seed);
    let _ = std::panic::take_hook();

    let json = to_json(&campaign);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_faults.json", &json).expect("write results");
    println!("{json}");

    for s in &campaign.sites {
        eprintln!(
            "audit: {:>12} fired {:>5} detected {:.1}% recovered {:>5} benign {:>4} silent {:>4}{}",
            s.site.name(),
            s.fired,
            s.detection_rate() * 100.0,
            s.recovered,
            s.benign,
            s.silent,
            if s.checked {
                ""
            } else {
                "  (not gated: partial chunks are unchecked)"
            },
        );
    }
    eprintln!(
        "audit: silent corruptions on checked sites: {}",
        campaign.silent_on_checked()
    );

    if campaign.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
