//! Metric names, summary statistics and the result line.

/// End-to-end metrics, reported by every workload with tracing off.
/// Each workload maps its operations onto the same five slots (see
/// `BENCHMARK.json` and the workload modules).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer a workload leaves idle reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Per-class latencies behind the end-to-end slots.
    ("search_p50_ms", "ms"),
    ("search_p90_ms", "ms"),
    ("threehop_p50_ms", "ms"),
    ("threehop_p90_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("gen.late_ms_p90", "ms"),
    ("gen.late_ms_max", "ms"),
    // Set-up phases.
    ("graphgen.gen_s", "s"),
    ("memcloud.bringup_s", "s"),
    ("graph.load_s", "s"),
    // memstore
    ("memstore.bytes_per_edge", "B"),
    ("memstore.live_ratio", "ratio"),
    // net
    ("net.frames_sent", "count"),
    ("net.frames_per_envelope", "count"),
    ("net.bytes_per_frame", "B"),
    ("net.handler_us_per_frame", "us"),
    ("net.copies_per_payload_byte", "ratio"),
    ("net.call_ms_p50", "ms"),
    ("net.calls_per_query", "count"),
    // core::bsp
    ("bsp.superstep_ms_p50", "ms"),
    ("bsp.barrier_skew_ms", "ms"),
    ("bsp.compute_s", "s"),
    ("bsp.compute_cpu_s", "s"),
    ("bsp.noncompute_share", "ratio"),
    ("bsp.remote_msgs", "count"),
    ("bsp.local_msgs", "count"),
    // core::online
    ("online.explore_ms_p50.search", "ms"),
    ("online.explore_ms_p50.threehop", "ms"),
    ("online.self_ms_p50", "ms"),
    ("online.visited_per_query", "count"),
    // serve
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.coalesce_hit_ratio", "ratio"),
    // obs
    ("trace.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// Figures of the runs left out of `BENCHMARK.json`, printed as lines but
/// not in the result line: the write path of `serve-write` (its end state
/// differs from the mutation log when commits overlap), the tiering and
/// TFS layer of `bsp-outofcore` (its ranks diverge from the reference)
/// and the `write-capacity` probe.
pub const EXTRA_LAYER: &[(&str, &str)] = &[
    // core::streaming + minitx
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("streaming.commit_ms_p50", "ms"),
    ("streaming.abort_ratio", "ratio"),
    ("streaming.queue_wait_ms_p50", "ms"),
    ("write_capacity_bps", "1/s"),
    // memcloud::tiering + tfs
    ("tier.faults", "count"),
    ("tier.spills", "count"),
    ("tier.fault_bytes", "B"),
    ("tier.spill_bytes", "B"),
    ("tier.faults_per_superstep", "count"),
    ("tier.prefetch_hit_ratio", "ratio"),
    ("tier.hook_ms", "ms"),
];

/// One run's outcome: the output check, the operation counts and every
/// metric measured.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    e2e: Vec<(&'static str, f64)>,
    layers: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.push((name, finite(value)));
    }

    /// Record a per-layer metric (its unit is fixed by [`PER_LAYER`] or
    /// [`EXTRA_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().chain(EXTRA_LAYER).any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.push((name, finite(value)));
    }

    /// A per-layer metric recorded so far.
    pub fn get(&self, name: &str) -> Option<f64> {
        lookup(&self.layers, name)
    }

    /// Count `n` operations attempted, `bad` of which failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Print every metric on its own line, then the result line: the
    /// end-to-end metrics untraced, the per-layer ones traced.
    pub fn print(&self, traced: bool) {
        println!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for (name, unit) in END_TO_END {
            if let Some(v) = lookup(&self.e2e, name) {
                println!("{name} = {v} {unit}");
            }
        }
        for (name, unit) in PER_LAYER.iter().chain(EXTRA_LAYER) {
            if let Some(v) = lookup(&self.layers, name) {
                println!("{name} = {v} {unit}");
            }
        }
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    json_metric(name, lookup(&self.layers, name).unwrap_or(0.0), unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|(name, unit)| {
                    lookup(&self.e2e, name).map(|v| json_metric(name, v, unit))
                })
                .collect()
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn lookup(list: &[(&'static str, f64)], name: &str) -> Option<f64> {
    list.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
