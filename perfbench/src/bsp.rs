//! `bsp-pagerank` and `bsp-outofcore`: PageRank through the BSP runtime.
//!
//! One repetition sets a cluster up from scratch (generate the graph,
//! bring up 8 machines, load), runs `pagerank_distributed` and checks
//! every rank against `pagerank_reference` on the same CSR. Repetitions
//! continue until the run's time is used (at least [`MIN_REPS`]).
//! `bsp-outofcore` caps each machine at half its loaded working set and
//! installs the bucket prefetcher as the job's superstep hook, so trunks
//! cycle through TFS every superstep.
//!
//! End-to-end slots: `setup_s` is the median set-up time over every
//! set-up of the run ([`SETUPS_PER_REP`] per repetition, spread over the
//! run); `job_s` the median PageRank wall time and `p50_ms`/`p90_ms` the
//! wall time of one superstep, both over the half of the untraced jobs
//! in which the host stole the least CPU (see [`crate::host`]). Untraced jobs
//! run the default `BspConfig` (out of core: the prefetcher as its hook);
//! their superstep times are the values machine 0 records in its
//! `bsp.superstep.us` histogram, read by a [`SuperstepWatch`] as they
//! land. Traced jobs wrap the hook in a [`TimingHook`] to time every
//! machine's superstep; it costs one pool barrier per superstep.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use trinity_algos::pagerank::{pagerank_distributed, pagerank_reference};
use trinity_core::bsp::SuperstepHook;
use trinity_core::{BspConfig, BucketPrefetcher};
use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity_memcloud::{CloudConfig, MemoryCloud};

use crate::counters;
use crate::host::{StealLog, StealMonitor};
use crate::report::{median, quantile, ratio, Report};
use crate::trace::Tracer;
use crate::Args;

const MACHINES: usize = 8;
const DEGREE: usize = 16;
const ITERATIONS: usize = 10;
/// Vertices of the resident job's social graph.
const N_RESIDENT: usize = 20_000;
/// Vertices of the out-of-core job's social graph.
const N_OUTOFCORE: usize = 8_000;
/// Memory budget as a share of the per-machine working set.
const BUDGET_SHARE: f64 = 0.5;
const NBUCKETS: usize = 4;
const MIN_REPS: usize = 3;
/// Set-ups per repetition: the job's own, then more torn down at once.
const SETUPS_PER_REP: usize = 3;
/// Fewest set-ups per run; short runs set up more after the jobs.
const SETUP_SAMPLES: usize = 15;
/// Largest accepted |rank − reference rank|. Resident runs differ from
/// the reference by about 1e-20 (summation order only); a lost or
/// duplicated message moves a rank by more than 1e-9.
const RANK_TOLERANCE: f64 = 1e-15;

/// Superstep-start times per machine, and the wrapped hook's own time.
struct TimingHook {
    inner: Option<Arc<BucketPrefetcher>>,
    /// (machine, superstep, hook entered, hook returned)
    events: Mutex<Vec<(usize, usize, Instant, Instant)>>,
}

impl SuperstepHook for TimingHook {
    fn superstep_start(&self, machine: usize, superstep: usize) {
        let start = Instant::now();
        if let Some(p) = &self.inner {
            p.superstep_start(machine, superstep);
        }
        let end = Instant::now();
        self.events.lock().push((machine, superstep, start, end));
    }
}

/// Collects the superstep times machine 0 records in its
/// `bsp.superstep.us` histogram, polling it every millisecond. The
/// histogram's buckets are powers of two; its running count and sum give
/// each superstep's exact time as it lands.
struct SuperstepWatch {
    stop: Arc<AtomicBool>,
    poller: JoinHandle<Vec<f64>>,
}

impl SuperstepWatch {
    fn start(cloud: &MemoryCloud) -> Self {
        let hist = cloud.node(0).endpoint().obs().histogram("bsp.superstep.us");
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut seen = hist.snapshot();
                let mut times_ms = Vec::new();
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let mut now = hist.snapshot();
                    if now.count != seen.count {
                        // `record` bumps count before sum: let it finish.
                        std::thread::sleep(Duration::from_micros(100));
                        now = hist.snapshot();
                        let n = now.count - seen.count;
                        let us = now.sum.wrapping_sub(seen.sum) as f64 / n as f64;
                        times_ms.extend(std::iter::repeat_n(us / 1e3, n as usize));
                        seen = now;
                    }
                    if done {
                        return times_ms;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        SuperstepWatch { stop, poller }
    }

    /// Superstep times seen, ms, in order.
    fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Release);
        self.poller.join().expect("superstep watch")
    }
}

/// What one repetition measured.
struct Rep {
    traced: bool,
    setup_s: f64,
    /// This repetition's set-up and the further ones after its job.
    setups_s: Vec<f64>,
    gen_s: f64,
    bringup_s: f64,
    load_s: f64,
    job_s: f64,
    /// When the job ran.
    job_window: (Instant, Instant),
    /// Wall time of each superstep, ms: machine 0's record (untraced) or
    /// first machine to first machine (traced).
    iterations_ms: Vec<f64>,
    /// First-to-last machine start of each superstep, ms.
    skews_ms: Vec<f64>,
    compute_s: f64,
    compute_cpu_s: f64,
    remote_msgs: f64,
    local_msgs: f64,
    hook_ms: f64,
    supersteps: usize,
    /// Process peak resident memory after the job, before teardown.
    peak_rss_mb: f64,
    tier: trinity_memcloud::TierStats,
    max_rank_error: f64,
    /// Per-layer figures read from exported counters.
    layers: Report,
}

pub fn run(args: &Args, tracer: &Tracer, outofcore: bool) -> Report {
    let n = if outofcore { N_OUTOFCORE } else { N_RESIDENT };
    let started = Instant::now();
    let steal = StealMonitor::start();
    let mut reference: Option<Vec<f64>> = None;
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len().max(1) as f64;
        if reps.len() >= MIN_REPS && elapsed + per_rep > args.seconds.as_secs_f64() {
            break;
        }
        // Traced runs alternate untraced and traced repetitions, so the
        // tracing overhead is measured within the run.
        let traced = tracer.on() && reps.len() % 2 == 1;
        reps.push(repetition(
            args.seed,
            n,
            outofcore,
            traced,
            tracer,
            &mut reference,
        ));
        let r = reps.last().expect("just pushed");
        eprintln!(
            "rep {}: setup {:.3}s job {:.3}s max rank error {:e}{}",
            reps.len(),
            r.setup_s,
            r.job_s,
            r.max_rank_error,
            if r.traced { " (traced)" } else { "" }
        );
    }
    let mut setups: Vec<f64> = reps.iter().flat_map(|r| r.setups_s.clone()).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(setup_only(args.seed, n, outofcore));
    }
    summarize(&reps, &setups, &steal.finish(), tracer.on(), outofcore)
}

/// Set a cluster up untraced and tear it down; the set-up time, s.
fn setup_only(seed: u64, n: usize, outofcore: bool) -> f64 {
    let s = setup(seed, n, outofcore, &Tracer::new(false), 0, 0);
    s.cloud.shutdown();
    s.total_s
}

/// A cluster with the graph loaded, ready for the job.
struct Setup {
    csr: Csr,
    cloud: Arc<MemoryCloud>,
    graph: Arc<DistributedGraph>,
    prefetcher: Option<Arc<BucketPrefetcher>>,
    /// Trunk footprint right after the load.
    memstore: Report,
    total_s: f64,
    gen_s: f64,
    bringup_s: f64,
    load_s: f64,
}

/// Generate the graph, bring up the machines, load, and (out of core)
/// cap each machine's memory and build the bucket prefetcher.
fn setup(seed: u64, n: usize, outofcore: bool, tr: &Tracer, root: u64, op: u64) -> Setup {
    let start = Instant::now();
    let (csr, gen_s) = tr.span(root, op, "graphgen.gen", || {
        trinity_graphgen::social(n, DEGREE, seed)
    });
    let (cloud, bringup_s) = tr.span(root, op, "memcloud.bringup", || {
        Arc::new(MemoryCloud::new(CloudConfig::new(MACHINES)))
    });
    let (graph, load_s) = tr.span(root, op, "graph.load", || {
        Arc::new(load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).expect("load graph"))
    });
    let mut memstore = Report::new();
    counters::memstore(&mut memstore, &cloud, csr.arc_count());
    let prefetcher = outofcore.then(|| {
        tr.span(root, op, "tier.install", || {
            let working_set = (0..MACHINES)
                .map(|m| cloud.node(m).store().stats().used_bytes as u64)
                .max()
                .unwrap_or(0);
            cloud.set_memory_budget((working_set as f64 * BUDGET_SHARE) as u64);
            BucketPrefetcher::new(Arc::clone(&graph), NBUCKETS)
        })
        .0
    });
    Setup {
        csr,
        cloud,
        graph,
        prefetcher,
        memstore,
        total_s: start.elapsed().as_secs_f64(),
        gen_s,
        bringup_s,
        load_s,
    }
}

fn repetition(
    seed: u64,
    n: usize,
    outofcore: bool,
    traced: bool,
    tracer: &Tracer,
    reference: &mut Option<Vec<f64>>,
) -> Rep {
    let off = Tracer::new(false);
    let tr = if traced { tracer } else { &off };
    let op = tr.id();
    let root = tr.id();
    let rep_start = Instant::now();
    let Setup {
        csr,
        cloud,
        graph,
        prefetcher,
        memstore: mut layers,
        total_s: setup_s,
        gen_s,
        bringup_s,
        load_s,
    } = setup(seed, n, outofcore, tr, root, op);

    // Untraced: the default configuration (out of core: the prefetcher
    // as the hook). Traced: the hook wrapped to time every machine.
    let hook = Arc::new(TimingHook {
        inner: prefetcher.clone(),
        events: Mutex::new(Vec::new()),
    });
    let superstep_hook = if traced {
        Some(Arc::clone(&hook) as Arc<dyn SuperstepHook>)
    } else {
        prefetcher.clone().map(|p| p as Arc<dyn SuperstepHook>)
    };
    let cfg = BspConfig {
        superstep_hook,
        ..BspConfig::default()
    };
    let net_before = counters::totals(&cloud);
    let tier_before = cloud.tier_stats();
    let watch = (!traced).then(|| SuperstepWatch::start(&cloud));
    let job_id = tr.id();
    let job_start = Instant::now();
    let result = pagerank_distributed(Arc::clone(&graph), ITERATIONS, cfg);
    let job_end = Instant::now();
    let watched_ms = watch.map(SuperstepWatch::finish);
    tr.record(job_id, root, op, "bsp.job", job_start, job_end);
    tr.record(root, 0, op, "bsp.rep", rep_start, job_end);
    let tier = counters::tier_delta(&tier_before, &cloud.tier_stats());
    counters::net(&mut layers, &net_before, &counters::totals(&cloud));
    if let Some(p) = &prefetcher {
        p.release();
    }

    // Superstep timings from the hook; spans per machine and superstep.
    let events = std::mem::take(&mut *hook.events.lock());
    let supersteps = events.iter().map(|e| e.1 + 1).max().unwrap_or(0);
    let mut first = vec![job_end; supersteps + 1];
    let mut last = vec![job_start; supersteps];
    for &(_, s, t, _) in &events {
        first[s] = first[s].min(t);
        last[s] = last[s].max(t);
    }
    let iterations_ms = watched_ms.unwrap_or_else(|| {
        (0..supersteps)
            .map(|s| (first[s + 1] - first[s]).as_secs_f64() * 1e3)
            .collect()
    });
    let skews_ms = (0..supersteps)
        .map(|s| last[s].saturating_duration_since(first[s]).as_secs_f64() * 1e3)
        .collect();
    let mut hook_ms = 0.0;
    for &(m, s, t, hook_end) in &events {
        let end = events
            .iter()
            .find(|e| e.0 == m && e.1 == s + 1)
            .map_or(job_end, |e| e.2);
        let id = tr.id();
        tr.record(id, job_id, op, "bsp.superstep", t, end);
        if prefetcher.is_some() {
            tr.record(tr.id(), id, op, "tier.hook", t, hook_end);
            hook_ms += (hook_end - t).as_secs_f64() * 1e3;
        }
    }

    let reference = reference.get_or_insert_with(|| {
        let r = pagerank_reference(&csr, ITERATIONS);
        (0..n as u64).map(|v| r[&v]).collect()
    });
    let max_rank_error = if result.states.len() == n {
        result
            .states
            .iter()
            .map(|(&v, s)| {
                // A NaN rank counts as the largest error.
                let e = (s.rank - reference[v as usize]).abs();
                if e.is_nan() {
                    f64::INFINITY
                } else {
                    e
                }
            })
            .fold(0.0, f64::max)
    } else {
        f64::INFINITY
    };
    let peak_rss_mb = crate::report::peak_rss_mb();
    cloud.shutdown();
    let mut setups_s = vec![setup_s];
    setups_s.extend((1..SETUPS_PER_REP).map(|_| setup_only(seed, n, outofcore)));
    Rep {
        traced,
        peak_rss_mb,
        setup_s,
        setups_s,
        gen_s,
        bringup_s,
        load_s,
        job_s: (job_end - job_start).as_secs_f64(),
        job_window: (job_start, job_end),
        iterations_ms,
        skews_ms,
        compute_s: result.reports.iter().map(|r| r.compute_seconds).sum(),
        compute_cpu_s: result.reports.iter().map(|r| r.compute_cpu_seconds).sum(),
        remote_msgs: result
            .reports
            .iter()
            .map(|r| r.remote_messages as f64)
            .sum(),
        local_msgs: result.reports.iter().map(|r| r.local_messages as f64).sum(),
        hook_ms,
        supersteps: result.reports.len(),
        tier,
        max_rank_error,
        layers,
    }
}

fn summarize(
    reps: &[Rep],
    setups: &[f64],
    steal: &StealLog,
    traced: bool,
    outofcore: bool,
) -> Report {
    let mut report = Report::new();
    let bad = reps
        .iter()
        .filter(|r| r.max_rank_error > RANK_TOLERANCE)
        .count() as u64;
    report.ops(reps.len() as u64, bad);
    report.correct = bad == 0;
    if bad > 0 {
        eprintln!(
            "output check: {bad} of {} jobs diverged from pagerank_reference",
            reps.len()
        );
    }
    let all = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let untraced_job: Vec<f64> = untraced.iter().map(|r| r.job_s).collect();
    // End-to-end timings: the jobs the host disturbed least.
    let calm = steal.calmest(
        &untraced
            .iter()
            .map(|r| (*r, r.job_window.0, r.job_window.1))
            .collect::<Vec<_>>(),
    );
    let calm_job: Vec<f64> = calm.iter().map(|r| r.job_s).collect();
    let iterations: Vec<f64> = calm
        .iter()
        .flat_map(|r| r.iterations_ms.iter().copied())
        .collect();
    report.e2e("setup_s", median(setups));
    report.e2e("job_s", median(&calm_job));
    report.e2e("p50_ms", quantile(&iterations, 0.5));
    report.e2e("p90_ms", quantile(&iterations, 0.9));
    // Peak of the first repetition: every torn-down cluster leaves memory
    // behind (about 50 MB at n=20000), so the process-wide peak grows
    // with the repetition count.
    report.e2e("peak_rss_mb", reps[0].peak_rss_mb);
    let all_iter: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.iterations_ms.iter().copied())
        .collect();
    eprintln!(
        "every sample, no steal filter: job_s={} p50_ms={} p90_ms={}",
        median(&untraced_job),
        quantile(&all_iter, 0.5),
        quantile(&all_iter, 0.9)
    );
    eprintln!(
        "samples: {} of {} jobs kept as least disturbed, {} iterations (p90 has {} beyond it), {} set-ups",
        calm_job.len(),
        untraced_job.len(),
        iterations.len(),
        iterations.len() / 10,
        setups.len()
    );

    report.layer("graphgen.gen_s", median(&all(|r| r.gen_s)));
    report.layer("memcloud.bringup_s", median(&all(|r| r.bringup_s)));
    report.layer("graph.load_s", median(&all(|r| r.load_s)));
    if !traced {
        return report;
    }
    // Per-layer figures: medians over the traced repetitions.
    let tr: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let med = |f: &dyn Fn(&Rep) -> f64| median(&tr.iter().map(|r| f(r)).collect::<Vec<_>>());
    for (name, _) in crate::report::PER_LAYER {
        let values: Vec<f64> = tr.iter().filter_map(|r| r.layers.get(name)).collect();
        if !values.is_empty() {
            report.layer(name, median(&values));
        }
    }
    let traced_iterations: Vec<f64> = tr
        .iter()
        .flat_map(|r| r.iterations_ms.iter().copied())
        .collect();
    let skews: Vec<f64> = tr.iter().flat_map(|r| r.skews_ms.iter().copied()).collect();
    report.layer("bsp.superstep_ms_p50", median(&traced_iterations));
    report.layer("bsp.barrier_skew_ms", median(&skews));
    let compute_s = med(&|r| r.compute_s);
    report.layer("bsp.compute_s", compute_s);
    report.layer("bsp.compute_cpu_s", med(&|r| r.compute_cpu_s));
    report.layer(
        "bsp.noncompute_share",
        1.0 - ratio(compute_s, med(&|r| r.job_s)),
    );
    report.layer("bsp.remote_msgs", med(&|r| r.remote_msgs));
    report.layer("bsp.local_msgs", med(&|r| r.local_msgs));
    report.layer(
        "trace.overhead_pct",
        (ratio(med(&|r| r.job_s), median(&untraced_job)) - 1.0) * 100.0,
    );
    if !outofcore {
        return report;
    }
    report.layer("tier.faults", med(&|r| r.tier.faults as f64));
    report.layer("tier.spills", med(&|r| r.tier.spills as f64));
    report.layer("tier.fault_bytes", med(&|r| r.tier.fault_bytes as f64));
    report.layer("tier.spill_bytes", med(&|r| r.tier.spill_bytes as f64));
    report.layer(
        "tier.faults_per_superstep",
        med(&|r| ratio(r.tier.faults as f64, r.supersteps as f64)),
    );
    report.layer(
        "tier.prefetch_hit_ratio",
        med(&|r| {
            ratio(
                r.tier.prefetch_hits as f64,
                (r.tier.prefetch_hits + r.tier.prefetch_misses) as f64,
            )
        }),
    );
    report.layer("tier.hook_ms", med(&|r| r.hook_ms));
    report
}
