//! Open-loop load generator for the trinity-serve runtime.
//!
//! Drives a Trinity cluster's proxy tier with a mixed query stream —
//! people search (paper §5.1, the "David problem") and full 3-hop
//! neighborhood exploration — at a *target QPS that does not slow down
//! when the server does* (open-loop), which is what exposes queueing
//! collapse. Three phases run against a calibrated sustainable rate:
//! 0.5× (uncontended), 1×, and 2× (overload). The serving runtime must
//! degrade gracefully: at 2× the shed rate absorbs the excess while the
//! p99 of *admitted* queries stays within 3× the uncontended p99.
//!
//! `--smoke` shrinks the graph and phase lengths to a ~2 s gate check.
//! `--metrics-out results/serve_load.metrics.json` writes per-phase
//! p50/p95/p99 + shed-rate series plus the full metrics registry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use trinity_bench::{header, row, secs, MetricsOut};
use trinity_core::online::{explore_via, ExploreOptions};
use trinity_core::{Explorer, TrinityCluster, TrinityConfig};
use trinity_graph::{load_graph, LoadOptions};
use trinity_net::Endpoint;
use trinity_obs::Json;
use trinity_serve::{Coalescer, Priority, ServeConfig, ServeError, ServeRuntime};

const SLAVES: usize = 4;
const NAME_SEED: u64 = 99;

/// Everything one query needs, cloned per submission.
struct QueryEnv {
    endpoint: Arc<Endpoint>,
    table: Arc<trinity_memcloud::AddressingTable>,
    slaves: usize,
    hook: trinity_serve::CallHook,
}

/// The two-entry query mix of the paper's online workloads.
#[derive(Clone, Copy)]
enum Mix {
    /// 2-hop people search for a fixed first name (Interactive class).
    PeopleSearch,
    /// Full 3-hop neighborhood exploration (Normal class).
    ThreeHop,
}

impl Mix {
    fn pick(rng: &mut u64) -> Mix {
        // 60/40 interactive-heavy, as a user-facing tier would see.
        if xorshift(rng) % 10 < 6 {
            Mix::PeopleSearch
        } else {
            Mix::ThreeHop
        }
    }

    fn class(self) -> Priority {
        match self {
            Mix::PeopleSearch => Priority::Interactive,
            Mix::ThreeHop => Priority::Normal,
        }
    }

    fn hops(self) -> usize {
        match self {
            Mix::PeopleSearch => 2,
            Mix::ThreeHop => 3,
        }
    }

    fn pattern(self) -> &'static [u8] {
        match self {
            Mix::PeopleSearch => b"David",
            Mix::ThreeHop => b"",
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Returns (nodes visited, whether the budget expired mid-flight and the
/// result is the partial neighborhood explored so far).
fn run_query(
    env: &QueryEnv,
    mix: Mix,
    start: u64,
    cancel: trinity_net::CancelToken,
) -> (usize, bool) {
    let r = explore_via(
        &env.endpoint,
        &env.table,
        env.slaves,
        start,
        mix.hops(),
        mix.pattern(),
        &ExploreOptions {
            cancel: Some(cancel),
            call: Some(env.hook.clone()),
            ..ExploreOptions::default()
        },
    );
    (r.visited(), r.deadline_exceeded)
}

#[derive(Default)]
struct PhaseStats {
    offered: u64,
    shed: u64,
    expired: u64,
    partial: u64,
    completed_latencies_us: Vec<u64>,
    series: Vec<(u64, u64, u64, i64)>, // (t_ms, completed_delta, shed_delta, depth)
}

impl PhaseStats {
    fn quantile(&self, q: f64) -> u64 {
        let v = &self.completed_latencies_us;
        if v.is_empty() {
            return 0;
        }
        v[((v.len() - 1) as f64 * q).round() as usize]
    }

    fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// Drive `rt` open-loop at `qps` for `duration`; collect admitted-query
/// latencies (client-observed: submit → completion) and a 250 ms
/// shed/completion/depth series.
fn run_phase(
    rt: &Arc<ServeRuntime>,
    env: &Arc<QueryEnv>,
    n: u64,
    qps: f64,
    duration: Duration,
    deadline: Duration,
    rng: &mut u64,
) -> PhaseStats {
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let partials = Arc::new(std::sync::atomic::AtomicU64::new(0));

    // 250 ms sampler over the runtime's cumulative serve.* counters.
    let obs = env.endpoint.obs().clone();
    let expired_ctr = obs.counter("serve.expired_in_queue");
    let expired_at_start = expired_ctr.get();
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        let completed = obs.counter("serve.completed");
        let sheds = [
            obs.counter("serve.shed.interactive"),
            obs.counter("serve.shed.normal"),
            obs.counter("serve.shed.batch"),
        ];
        let depth = obs.gauge("serve.queue.depth");
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let (mut last_done, mut last_shed) =
                (completed.get(), sheds.iter().map(|c| c.get()).sum::<u64>());
            let mut out = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(250));
                let done = completed.get();
                let shed: u64 = sheds.iter().map(|c| c.get()).sum();
                out.push((
                    t0.elapsed().as_millis() as u64,
                    done - last_done,
                    shed - last_shed,
                    depth.get(),
                ));
                (last_done, last_shed) = (done, shed);
            }
            out
        })
    };

    let mut stats = PhaseStats::default();
    let interarrival = Duration::from_secs_f64(1.0 / qps);
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed() < duration {
        // Open loop: arrival i is *scheduled* at t0 + i/qps whether or
        // not the server kept up.
        let due = interarrival.mul_f64(i as f64);
        let now = t0.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        i += 1;
        stats.offered += 1;
        let mix = Mix::pick(rng);
        let start = xorshift(rng) % n;
        let env2 = Arc::clone(env);
        let latencies2 = Arc::clone(&latencies);
        let partials2 = Arc::clone(&partials);
        let submit_t = Instant::now();
        // Client-observed latency is recorded at the tail of the job
        // itself (submit → completion); the completion ticket is dropped —
        // nothing downstream of the runtime can add head-of-line blocking
        // to the measurement.
        match rt.submit(mix.class(), Some(deadline), move |ctx| {
            let (visited, partial) = run_query(&env2, mix, start, ctx.cancel.clone());
            if partial {
                partials2.fetch_add(1, Ordering::Relaxed);
            }
            latencies2
                .lock()
                .push(submit_t.elapsed().as_micros() as u64);
            visited
        }) {
            Ok(_ticket) => {}
            Err(ServeError::Overloaded { .. }) => stats.shed += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    // Let the queue drain before reading the phase's results.
    while rt.depth(Priority::Interactive) + rt.depth(Priority::Normal) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    stats.series = sampler.join().expect("sampler");
    stats.expired = expired_ctr.get() - expired_at_start;
    stats.partial = partials.load(Ordering::Relaxed);
    stats.completed_latencies_us = latencies.lock().clone();
    stats.completed_latencies_us.sort_unstable();
    stats
}

fn phase_json(name: &str, qps: f64, s: &PhaseStats) -> Json {
    Json::obj([
        ("phase", Json::Str(name.to_string())),
        ("target_qps", Json::F64(qps)),
        ("offered", Json::U64(s.offered)),
        ("shed", Json::U64(s.shed)),
        ("expired_in_queue", Json::U64(s.expired)),
        (
            "completed",
            Json::U64(s.completed_latencies_us.len() as u64),
        ),
        ("partial_results", Json::U64(s.partial)),
        ("shed_rate", Json::F64(s.shed_rate())),
        ("p50_us", Json::U64(s.quantile(0.50))),
        ("p95_us", Json::U64(s.quantile(0.95))),
        ("p99_us", Json::U64(s.quantile(0.99))),
        (
            "series_250ms",
            Json::Arr(
                s.series
                    .iter()
                    .map(|&(t, done, shed, depth)| {
                        Json::obj([
                            ("t_ms", Json::U64(t)),
                            ("completed", Json::U64(done)),
                            ("shed", Json::U64(shed)),
                            ("queue_depth", Json::I64(depth)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut metrics = MetricsOut::from_args();

    let (n, degree, phase_secs, deadline) = if smoke {
        (2_000usize, 8usize, 0.5f64, Duration::from_millis(400))
    } else {
        (20_000, 16, 3.0, Duration::from_millis(800))
    };
    println!(
        "serve_load{}: social graph n={n} avg-degree~{degree}, {SLAVES} slaves + 1 proxy",
        if smoke { " (smoke)" } else { "" }
    );

    let csr = trinity_graphgen::social(n, degree, 7);
    let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> =
        Arc::new(move |v| trinity_graphgen::names::name_for(NAME_SEED, v).into_bytes());
    let mut cloud_cfg = trinity_bench::bench_cloud_config(SLAVES);
    // The whole cluster shares one simulated host: keep the runnable
    // thread population small so latency reflects the serving design, not
    // timeslice rotation across dozens of threads.
    cloud_cfg.workers_per_machine = 2;
    let cluster = TrinityCluster::new(TrinityConfig {
        cloud: cloud_cfg,
        proxies: 1,
        clients: 1,
    });
    load_graph(
        Arc::clone(cluster.cloud()),
        &csr,
        &LoadOptions {
            with_in_links: false,
            attrs: Some(attrs),
        },
    )
    .expect("load graph");
    let _explorer = Explorer::install(Arc::clone(cluster.cloud()));

    let proxy = cluster.proxy(0);
    let coalescer = Coalescer::new(Arc::clone(proxy.endpoint()));
    let env = Arc::new(QueryEnv {
        endpoint: Arc::clone(proxy.endpoint()),
        table: Arc::new(cluster.cloud().node(0).table()),
        slaves: cluster.slaves(),
        hook: coalescer.hook(),
    });
    let cfg = ServeConfig {
        workers: 2,
        // Shallow queues on purpose: shed early, keep p99 flat.
        queue_capacity: [2, 3, 3, 4],
        default_deadline: Some(deadline),
    };
    let workers = cfg.workers;
    let rt = ServeRuntime::start(proxy.endpoint(), cfg);

    // Calibrate closed-loop *through the runtime*: `workers` clients each
    // keep exactly one query in flight, so the measured completion rate is
    // the pool's real throughput including slave-side contention — the
    // rate the open-loop phases are scaled against.
    let mut rng = 0x5EED_u64 | 1;
    let calib_d = Duration::from_secs_f64(if smoke { 0.4 } else { 1.5 });
    let t0 = Instant::now();
    let completed: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let rt = Arc::clone(&rt);
                let env = Arc::clone(&env);
                let mut rng = rng ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                s.spawn(move || {
                    let mut done = 0u64;
                    while t0.elapsed() < calib_d {
                        let mix = Mix::pick(&mut rng);
                        let start = xorshift(&mut rng) % n as u64;
                        let env2 = Arc::clone(&env);
                        if let Ok(t) = rt.submit(mix.class(), None, move |ctx| {
                            run_query(&env2, mix, start, ctx.cancel.clone())
                        }) {
                            let _ = t.wait();
                            done += 1;
                        }
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    // Derate: the open-loop generator shares the simulated host's CPU
    // with the cluster, which the closed-loop calibration didn't pay for.
    let sustainable_qps = (0.8 * completed as f64 / elapsed).max(1.0);
    let mean_service = workers as f64 / sustainable_qps;
    rng = xorshift(&mut rng) | 1;
    println!(
        "calibration: {completed} queries in {} closed-loop → sustainable ≈ {sustainable_qps:.0} qps \
         ({} mean service, {workers} workers)",
        secs(elapsed),
        secs(mean_service),
    );

    header(
        "serve_load — open-loop phases",
        &[
            "phase", "qps", "offered", "done", "part", "shed", "rate", "p50", "p95", "p99",
        ],
    );
    let phase_d = Duration::from_secs_f64(phase_secs);
    let mut sections: Vec<Json> = Vec::new();
    let mut by_name: Vec<(&str, PhaseStats)> = Vec::new();
    // The uncontended phase runs with a generous budget and establishes
    // the SLO; loaded phases then enforce deadline = 2× the uncontended
    // p99 — a query that cannot finish inside its budget returns the
    // partial neighborhood explored so far instead of dragging the tail.
    let mut slo = deadline;
    for (name, factor) in [("0.5x", 0.5), ("1x", 1.0), ("2x", 2.0)] {
        let qps = sustainable_qps * factor;
        let s = run_phase(&rt, &env, n as u64, qps, phase_d, slo, &mut rng);
        row(&[
            name.into(),
            format!("{qps:.0}"),
            s.offered.to_string(),
            s.completed_latencies_us.len().to_string(),
            s.partial.to_string(),
            s.shed.to_string(),
            format!("{:.1}%", s.shed_rate() * 100.0),
            secs(s.quantile(0.50) as f64 / 1e6),
            secs(s.quantile(0.95) as f64 / 1e6),
            secs(s.quantile(0.99) as f64 / 1e6),
        ]);
        sections.push(phase_json(name, qps, &s));
        if name == "0.5x" {
            slo = Duration::from_micros((2 * s.quantile(0.99)).max(2_000));
            println!(
                "(SLO for loaded phases: {} deadline per query)",
                secs(slo.as_secs_f64())
            );
        }
        by_name.push((name, s));
    }

    let uncontended_p99 = by_name[0].1.quantile(0.99).max(1);
    let overload = &by_name[2].1;
    let overload_p99 = overload.quantile(0.99);
    let ratio = overload_p99 as f64 / uncontended_p99 as f64;
    let degraded_gracefully = ratio <= 3.0 && overload.shed_rate() > 0.0;
    println!(
        "\ngraceful degradation at 2x: admitted p99 {} vs uncontended p99 {} ({ratio:.2}x, \
         shed rate {:.1}%) → {}",
        secs(overload_p99 as f64 / 1e6),
        secs(uncontended_p99 as f64 / 1e6),
        overload.shed_rate() * 100.0,
        if degraded_gracefully { "PASS" } else { "FAIL" }
    );
    // The depth gauge reads the queue's own length, so a negative sample
    // means the metric is lying.
    let min_depth = by_name
        .iter()
        .flat_map(|(_, s)| s.series.iter().map(|&(_, _, _, depth)| depth))
        .min()
        .unwrap_or(0);
    println!(
        "queue depth gauge: min sample {min_depth} → {}",
        if min_depth >= 0 { "PASS" } else { "FAIL" }
    );
    let pass = degraded_gracefully && min_depth >= 0;
    println!(
        "coalescing: {} merged / {} upstream",
        coalescer.hits(),
        coalescer.misses()
    );

    metrics.section(
        "serve_load",
        Json::obj([
            (
                "calibration",
                Json::obj([
                    ("mean_service_us", Json::F64(mean_service * 1e6)),
                    ("sustainable_qps", Json::F64(sustainable_qps)),
                ]),
            ),
            ("phases", Json::Arr(sections)),
            (
                "acceptance",
                Json::obj([
                    ("slo_us", Json::U64(slo.as_micros() as u64)),
                    ("uncontended_p99_us", Json::U64(uncontended_p99)),
                    ("overload_p99_us", Json::U64(overload_p99)),
                    ("p99_ratio", Json::F64(ratio)),
                    ("min_queue_depth", Json::I64(min_depth)),
                    ("pass", Json::Bool(pass)),
                ]),
            ),
        ]),
    );
    metrics.capture("registry", cluster.cloud());
    rt.shutdown();
    cluster.shutdown();
    metrics.finish();
    if smoke && !pass {
        std::process::exit(1);
    }
}
