//! What a workload returns, the statistics it is reduced with, and the
//! result line the benchmark prints last.

use std::fmt::Write as _;
use std::time::Duration;

/// One named number with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of `BENCHMARK.json`, in its order.
    pub end_to_end: Vec<Metric>,
    /// The same run under the metric names of the workload table in
    /// `perfbench/README.md` (`compile_ms`, `rows_per_s`, `serve_p99_ms`, ...).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Host, validity and provenance record: `key`, JSON value.
    pub record: Vec<(String, String)>,
    /// Human-readable reasons for each failure class seen.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn record(&mut self, key: &str, json: impl Into<String>) {
        self.record.push((key.into(), json.into()));
    }

    /// Count `bad` failures out of `attempted`, remembering why.
    pub fn check(&mut self, attempted: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if bad > 0 {
            self.failed += bad;
            self.problems.push(format!("{bad} failed: {}", what()));
        }
    }

    /// A correctness condition that is not a counted operation: a
    /// failure marks the run incorrect without changing `attempted`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of an unsorted sample (`NaN` if empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `graphs::probe_ms` on the host the benchmark was tuned on (a 2-vCPU
/// VM) in a quiet spell. The end-to-end timings are reported at that
/// host speed: a time is multiplied, and a rate divided, by
/// [`speed_scale`] of the probes interleaved with the run's measured
/// work, so a neighbour slowing the shared host for minutes does not
/// read as a regression. The `named` lines keep the raw wall-clock
/// values.
pub const PROBE_REF_MS: f64 = 2.3;

pub fn speed_scale(probes_ms: &[f64]) -> f64 {
    PROBE_REF_MS / median(probes_ms)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`: user, nice, system, idle,
/// iowait, irq, softirq, steal, ... in clock ticks.
pub fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|t| t.parse().ok()).collect()
}

/// CPU time this process has been given so far, every thread included
/// (`utime + stime` of `/proc/self/stat`, at the fixed 100 Hz USER_HZ).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // fields after the parenthesised command name
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values with full precision, anything else `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Print the human report, then the one-line result: end-to-end metrics
/// untraced, per-layer metrics traced.
pub fn print(workload: &str, traced: bool, o: &Outcome) {
    println!("# perfbench {workload} (trace {})", u8::from(traced));
    for (k, v) in &o.record {
        println!("record {k} = {v}");
    }
    let ratio = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "named failed_ratio = {ratio} ratio ({} of {})",
        o.failed, o.attempted
    );
    for m in &o.named {
        println!("named {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &o.end_to_end {
        println!("end_to_end {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &o.layers {
        println!("layer {} = {} {}", m.name, m.value, m.unit);
    }
    for p in &o.problems {
        println!("FAILED: {p}");
    }
    let metrics = if traced { &o.layers } else { &o.end_to_end };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics_json(metrics)
    );
}
