//! `bsp_scaling` — intra-machine compute scaling of the BSP worker pool.
//!
//! Fixed graph, machines fixed at 8, `compute_threads` swept 1→8. For
//! each pool width the figure reports, per PageRank run:
//!
//! * **wall** — wall-clock time of the whole job on this host (only
//!   meaningful on a host with spare cores; the simulation multiplexes
//!   8 machines × N workers onto whatever exists);
//! * **cpu** — aggregate compute CPU seconds across all machines and
//!   workers (the work burned; should stay roughly flat as threads rise);
//! * **critical** — summed per-superstep critical paths (slowest worker +
//!   serial section, maxed over machines): the superstep latency a real
//!   cluster could not beat, which is what must *drop* as the pool widens.
//!
//! Determinism rides along: every sweep point must produce bit-identical
//! ranks to the single-thread run.
//!
//! `--smoke` shrinks the iteration count and asserts the headline claims:
//! identical results at every width always; a critical-path speedup above
//! 1.5x at 4 threads when the host has at least 4 cores (on fewer cores
//! the pool time-slices and spin-lock contention inflates worker CPU, so
//! the measurement says nothing about a real machine); and a wall-clock
//! speedup above 1.5x when the host has at least 16 cores (below that
//! the 8 concurrent machine drivers already saturate the host at 1
//! thread each, so wider pools add no physical parallelism).
//! `--metrics-out results/bsp_scaling.metrics.json` writes the series
//! plus the full metrics registry.

use std::collections::BTreeMap;
use std::path::Path;

use trinity_algos::pagerank_distributed;
use trinity_bench::{
    cloud_with_graph, header, row, scaled, secs, timed, wall_regression_gate, MetricsOut,
};
use trinity_core::BspConfig;
use trinity_graph::LoadOptions;
use trinity_obs::Json;

const MACHINES: usize = 8;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut metrics = MetricsOut::from_args();

    let (n, degree, iterations) = if smoke {
        (16_000, 16, 4)
    } else {
        (scaled(40_000), 16, 5)
    };
    let csr = trinity_graphgen::social(n, degree, 7);
    let sweep: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    header(
        &format!(
            "bsp_scaling — PageRank({iterations} iters) on social n={n} deg={degree}, \
             {MACHINES} machines, compute threads swept"
        ),
        &["threads", "wall", "cpu", "critical", "speedup(critical)"],
    );

    let mut baseline: Option<BTreeMap<u64, u64>> = None;
    let mut baseline_critical = 0.0f64;
    let mut baseline_wall = 0.0f64;
    let mut series: Vec<Json> = Vec::new();
    let mut critical_at_4 = None;
    let mut wall_at_4 = None;
    // (copied bytes, payload bytes) cluster-wide at the widest pool —
    // the one-copy contract evidence for the BSP message path.
    let mut copy_ratio: Option<(u64, u64)> = None;

    for &threads in sweep {
        let (cloud, graph) = cloud_with_graph(&csr, MACHINES, &LoadOptions::default());
        let cfg = BspConfig {
            compute_threads: threads,
            ..BspConfig::default()
        };
        let (result, wall) = timed(|| pagerank_distributed(graph, iterations, cfg));
        let cpu: f64 = result.reports.iter().map(|r| r.compute_cpu_seconds).sum();
        let critical: f64 = result.reports.iter().map(|r| r.compute_seconds).sum();
        let bits: BTreeMap<u64, u64> = result
            .states
            .iter()
            .map(|(&id, s)| (id, s.rank.to_bits()))
            .collect();
        match &baseline {
            None => {
                baseline = Some(bits);
                baseline_critical = critical;
                baseline_wall = wall;
            }
            Some(base) => assert_eq!(
                &bits, base,
                "{threads}-thread ranks diverged from the single-thread run"
            ),
        }
        if threads == 4 {
            critical_at_4 = Some(critical);
            wall_at_4 = Some(wall);
        }
        let speedup = baseline_critical / critical.max(1e-12);
        metrics.capture(&format!("threads={threads}"), &cloud);
        if threads == *sweep.last().unwrap() {
            let obs = cloud.fabric().obs();
            let sum = |name: &'static str| -> u64 {
                obs.scopes().iter().map(|s| s.counter(name).get()).sum()
            };
            copy_ratio = Some((sum("net.frame_copy_bytes"), sum("net.frame_payload_bytes")));
        }
        cloud.shutdown();
        series.push(Json::obj([
            ("threads", Json::U64(threads as u64)),
            ("wall_seconds", Json::F64(wall)),
            ("cpu_seconds", Json::F64(cpu)),
            ("critical_path_seconds", Json::F64(critical)),
        ]));
        row(&[
            threads.to_string(),
            secs(wall),
            secs(cpu),
            secs(critical),
            format!("{speedup:.2}x"),
        ]);
    }

    metrics.section("scaling", Json::Arr(series));
    metrics.finish();

    if smoke {
        let host = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        if host >= 4 {
            let critical4 = critical_at_4.expect("sweep includes 4 threads");
            let speedup = baseline_critical / critical4.max(1e-12);
            assert!(
                speedup > 1.5,
                "critical-path speedup at 4 threads must exceed 1.5x on a {host}-core host, \
                 got {speedup:.2}x ({} vs {})",
                secs(baseline_critical),
                secs(critical4),
            );
        } else {
            println!("smoke: {host}-core host; critical-path gate skipped (needs >= 4 cores)");
        }
        if host >= 2 * MACHINES {
            let wall4 = wall_at_4.expect("sweep includes 4 threads");
            let wall_speedup = baseline_wall / wall4.max(1e-12);
            assert!(
                wall_speedup > 1.5,
                "wall-clock speedup at 4 threads must exceed 1.5x on a {host}-core host, \
                 got {wall_speedup:.2}x"
            );
        } else {
            println!(
                "smoke: {host}-core host; wall-clock gate skipped (needs >= {} cores)",
                2 * MACHINES
            );
        }
        // One-copy gate on the BSP message path: superstep frames are
        // copied once into the pack arena and never again.
        let (copied, payload) = copy_ratio.expect("sweep measures the widest pool");
        let ratio = copied as f64 / payload.max(1) as f64;
        println!(
            "smoke: zero-copy {copied} bytes copied / {payload} payload bytes \
             ({ratio:.3} copies per payload byte)"
        );
        assert!(
            ratio <= 1.05,
            "one-copy contract broken on the BSP path: {ratio:.3} copies per payload byte"
        );
        wall_regression_gate(
            Path::new("results/bsp_scaling.baseline.json"),
            "wall_1thread_seconds",
            "1-thread",
            baseline_wall,
        );
        println!("smoke: OK (results bit-identical across thread counts)");
    }
}
