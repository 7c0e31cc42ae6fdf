//! The repository benchmark: five workloads, from the paper's FABOP
//! instance to a job served over NDJSON and HTTP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fabop_islands --seed 1 --seconds 16 --trace 0
//! ```
//!
//! Every input is generated from `--seed`. The run measures for
//! `--seconds` (and at least a fixed number of operations, so the
//! objective is taken over a fixed seed set), checks every output, prints
//! a readable report and, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics from the
//! span recorder (`--trace 1`). See `perfbench/README.md` for the
//! workloads and for which layer metric moves which end-to-end metric.

mod inputs;
mod oneshot;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, reported by every workload with tracing off.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s", "s"),
    ("objective", "objective"),
    ("job_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("load_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A metric of a layer
/// the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.init_ms", "ms"),
    ("core.init_steps", "count"),
    ("core.init_share", "fraction"),
    ("core.step_us", "us"),
    ("core.steps", "count"),
    ("engine.epoch_ms", "ms"),
    ("engine.epochs", "count"),
    ("engine.migrations_adopted", "count"),
    ("engine.harvest_ms", "ms"),
    ("dist.solve_ms", "ms"),
    ("dist.vs_local_ratio", "ratio"),
    ("dist.news_events", "count"),
    ("dist.respawns", "count"),
    ("multilevel.coarsen_ms", "ms"),
    ("multilevel.coarse_solve_ms", "ms"),
    ("multilevel.refine_ms", "ms"),
    ("multilevel.search_share", "fraction"),
    ("multilevel.levels", "count"),
    ("multilevel.coarse_vertices", "count"),
    ("service.accept_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.permit_wait_ms", "ms"),
    ("service.ndjson_job_p50_ms", "ms"),
    ("service.http_job_p50_ms", "ms"),
    ("service.load_miss_ms", "ms"),
    ("service.load_hit_ms", "ms"),
    ("service.cache_hit_ratio", "fraction"),
    ("service.cache_evictions", "count"),
    ("service.rejected", "count"),
    ("journal.bytes_per_job", "bytes"),
    ("obs.scrape_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "fabop_islands",
    "fabop_workers",
    "planted_6k",
    "mlscale_1e5",
    "served_mix",
];

/// Where traces and the served workload's journal go, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = ".bench_out";

/// Everything a workload needs and fills in.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub report: Report,
}

impl Ctx {
    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// How a per-layer value was obtained.
#[derive(Clone, Copy)]
enum How {
    P50(usize),
    Exact,
    Derived,
}

/// Metrics, op counts and readable notes of one run.
#[derive(Default)]
pub struct Report {
    e2e: Vec<(&'static str, f64)>,
    layer: Vec<(&'static str, f64, How)>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks (a subset of `failed`).
    pub mismatches: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.e2e.push((name, value));
    }

    /// A per-layer p50 over `samples`, kept with its sample count.
    pub fn layer_p50(&mut self, name: &'static str, samples: &[f64]) {
        self.layer_value(name, stats::median(samples), How::P50(samples.len()));
    }

    /// A per-layer count that repeats exactly for a seed.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer_value(name, value, How::Exact);
    }

    /// A per-layer value computed from timings (a ratio or a mean).
    pub fn layer_derived(&mut self, name: &'static str, value: f64) {
        self.layer_value(name, value, How::Derived);
    }

    fn layer_value(&mut self, name: &'static str, value: f64, how: How) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layer.push((name, value, how));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one output check; a mismatch fails its operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Prints the readable report and then the result line.
    fn print(&self, traced: bool) {
        let unit_of = |list: &[(&str, &'static str)], name: &str| {
            list.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, u)| *u)
                .unwrap_or("")
        };
        for line in &self.notes {
            println!("# {line}");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# attempted {}  failed {}  output mismatches {}  error_rate {error_rate}",
            self.attempted, self.failed, self.mismatches
        );
        let mut metrics = Vec::new();
        if traced {
            for &(name, unit) in PER_LAYER {
                let (value, how) = self.layer.iter().find(|(n, _, _)| *n == name).map_or(
                    (0.0, "not called by this workload".to_string()),
                    |&(_, v, how)| {
                        let how = match how {
                            How::P50(n) => format!("p50 of {n}"),
                            How::Exact => "exact".to_string(),
                            How::Derived => "derived".to_string(),
                        };
                        (v, how)
                    },
                );
                println!("# {name:<28} {value:>14.6} {unit:<9} {how}");
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                ));
            }
        } else {
            for &(name, unit) in END_TO_END {
                let value = self
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                println!("# {name:<28} {value:>14.6} {}", unit_of(END_TO_END, name));
                metrics.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                ));
            }
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let started = Instant::now();
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
    };
    let run = match args.workload.as_str() {
        "fabop_islands" => oneshot::fabop_islands(&mut ctx),
        "fabop_workers" => oneshot::fabop_workers(&mut ctx),
        "planted_6k" => oneshot::planted_6k(&mut ctx),
        "mlscale_1e5" => oneshot::mlscale_1e5(&mut ctx),
        "served_mix" => served::served_mix(&mut ctx),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::from(1);
    }
    ctx.report.e2e("peak_rss_mb", peak_rss_mb());
    if ctx.traced() {
        let path = std::path::Path::new(OUT_DIR)
            .join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
        if let Err(e) = ctx.tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        ctx.report
            .note(format!("spans written to {}", path.display()));
    }
    ctx.report.note(format!(
        "workload {} seed {} wall {:.1}s",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    ));
    ctx.report.print(ctx.traced());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists here and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let json: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let unit = m["unit"].as_str().unwrap_or_default().to_string();
                    (m["name"].as_str().unwrap().to_string(), unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
