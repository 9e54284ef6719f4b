//! `perfbench` — the end-to-end and per-layer benchmark of the memory
//! cloud.
//!
//! One process runs one named workload against a freshly built cluster:
//!
//! * `bsp-pagerank` — PageRank over a generated social graph on 8
//!   machines (the offline path: net pack/route/dispatch and BSP inbox);
//! * `bsp-outofcore` — the same job under a memory budget of half the
//!   per-machine working set, with the bucket prefetcher installed (the
//!   only workload where trunk tiering and TFS do the work). It is not
//!   listed in `BENCHMARK.json`: its ranks diverge from the reference in
//!   about a third of the jobs, a known defect its output check reports;
//! * `serve-read` — people search and 3-hop exploration through a
//!   proxy's serving runtime, open loop at a fixed rate, then closed loop
//!   with 2 clients (the online path);
//! * `serve-write` — `serve-read` plus a fixed-rate stream of mutation
//!   batches committed through mini-transactions beside the reads;
//! * `write-capacity` — a probe, not in `BENCHMARK.json`: mutation
//!   batches per second the serve-write cluster commits closed loop with
//!   2 writers, the basis of `--write-bps`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --read-qps 90 --write-bps 145 \
//!     --workload serve-read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The seed only shapes the generated inputs (graph, start vertices,
//! mutations); offered rates come from the command line and are never
//! recalibrated. Every workload checks its output against a
//! single-process reference. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, computed
//! from spans the benchmark records around its own calls into each
//! layer plus the counters the program exports. Spans are written to
//! `perfbench/out/<workload>-seed<seed>.spans.json`. Every metric is also
//! printed, one per line, before the JSON line.

mod bsp;
mod counters;
mod host;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use report::Report;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Open-loop read rate, queries/s (serve workloads).
    pub read_qps: Option<f64>,
    /// Open-loop write rate, mutation batches/s (serve-write).
    pub write_bps: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut read_qps = None;
    let mut write_bps = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--read-qps" => read_qps = Some(positive(&flag, &value)?),
            "--write-bps" => write_bps = Some(positive(&flag, &value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        read_qps,
        write_bps,
    })
}

fn positive(flag: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!("{flag} takes a positive rate, not {value}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(trace::Tracer::new(args.trace));
    let (started, steal_before) = (std::time::Instant::now(), host::steal_s());
    let result: Result<Report, String> = match args.workload.as_str() {
        "bsp-pagerank" => Ok(bsp::run(&args, &tracer, false)),
        "bsp-outofcore" => Ok(bsp::run(&args, &tracer, true)),
        "serve-read" => serve::run(&args, &tracer, false),
        "serve-write" => serve::run(&args, &tracer, true),
        "write-capacity" => Ok(serve::write_capacity(&args)),
        other => Err(format!("unknown workload {other}")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Time the hypervisor gave to other guests while this run wanted the
    // CPU: the main source of run-to-run noise on a shared host.
    eprintln!(
        "host steal: {:.2} s over {:.1} s of run; process peak RSS {:.0} MB",
        host::steal_s() - steal_before,
        started.elapsed().as_secs_f64(),
        report::peak_rss_mb()
    );
    if args.trace {
        let spans = tracer.finish();
        report.layer("unattributed_pct", spans.unattributed_pct());
        let path = std::path::Path::new("perfbench/out")
            .join(format!("{}-seed{}.spans.json", args.workload, args.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("spans: {} written to {}", spans.len(), path.display());
    }
    report.print(args.trace);
    ExitCode::SUCCESS
}
