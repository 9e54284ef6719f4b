//! `serve-read` and `serve-write`: queries through a proxy's serving
//! runtime, with (serve-write) a mutation stream beside them.
//!
//! The cluster is 4 slaves, 1 proxy and 1 client. The graph is a social
//! graph with names as attributes, loaded with in-links in both
//! workloads. The proxy runs a `ServeRuntime` with 2 workers and a
//! `Coalescer` call hook. The first cluster set up is measured; more
//! are set up (and torn down) between closed-loop batches, for the
//! set-up time.
//!
//! * Open loop, [`OPEN_SHARE`] of the run: one generator thread sends
//!   reads at the fixed `--read-qps`, a 3:2 interleave of people search
//!   (2 hops, names containing "David", Interactive class) and full
//!   3-hop exploration (Normal class) from seeded start vertices. In
//!   serve-write a second generator sends 8-mutation batches (edge add :
//!   edge remove = 7:1) at the fixed `--write-bps` through
//!   `submit_mutation` → `StreamingIngest::commit_batch`, until the run
//!   ends. Latency runs from each operation's scheduled send time to its
//!   completion inside the runtime's worker.
//! * Closed loop, the rest of the run: 2 clients each keep one query in
//!   flight, in batches of [`BATCH`] queries.
//!
//! End-to-end slots: `setup_s` is the median of [`SETUPS`] set-ups;
//! `job_s` the median wall time of a closed-loop batch; `p50_ms`/`p90_ms`
//! the latency of the open-loop operations, reads and writes pooled. The
//! timings come from the share of batches and one-second windows in which
//! the host stole the least CPU (see [`crate::host`]); the per-class
//! figures cover every window.
//!
//! serve-write is not in `BENCHMARK.json`: when two commits overlap, the
//! mutation log can hold a batch after one with a later sequence number,
//! `MutationLog::replay_onto` then skips it, and the end-state check
//! fails (it reports how many batches were logged out of order).
//!
//! `write-capacity`, a probe outside `BENCHMARK.json`, commits mutation
//! batches closed loop with 2 writers and no reads on the same cluster:
//! the capacity serve-write's `--write-bps` is a share of.
//!
//! Output check: serve-read compares every completed, non-partial
//! query's visited and match counts with a breadth-first search of the
//! CSR. serve-write checks the end state: after quiescence, the topology
//! scanned from the cloud equals the base graph with the mutation log
//! replayed onto it. A shed request, an expired or partial query, a
//! failed commit and a check mismatch each count as a failed operation.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use trinity_core::minitx::TxService;
use trinity_core::online::{explore_via, CallHook, ExploreOptions};
use trinity_core::{
    Explorer, Mutation, MutationBatch, StreamingIngest, Topology, TrinityCluster, TrinityConfig,
};
use trinity_graph::{load_graph, Csr, DistributedGraph, LoadOptions};
use trinity_memcloud::CloudConfig;
use trinity_serve::{Coalescer, Priority, QueryCtx, ServeConfig, ServeError, ServeRuntime, Ticket};

use crate::counters;
use crate::host::{StealLog, StealMonitor};
use crate::report::{mean, median, quantile, ratio, Report};
use crate::trace::Tracer;
use crate::Args;

const SLAVES: usize = 4;
const N: usize = 20_000;
const DEGREE: usize = 16;
/// Set-ups per run: the measured cluster's, then one after each
/// closed-loop batch, then (short runs) more after the measurement.
const SETUPS: usize = 21;
/// Share of the run spent in the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.7;
/// Queries per closed-loop batch (split evenly over the clients).
const BATCH: usize = 100;
/// Mutation batches per closed-loop batch of `write-capacity`.
const WRITE_BATCH: usize = 100;
const CLIENTS: usize = 2;
const MIN_BATCHES: usize = 3;
const MUTATIONS_PER_BATCH: usize = 8;
const PATTERN: &[u8] = b"David";
/// Per-query deadline stamped by the runtime, and the admission queue
/// depth per class. Both are generous: the benchmark measures latency at
/// a fixed load, and a burst of host steal (up to a third of the CPU for
/// seconds) must not turn into shed or expired queries.
const DEADLINE: Duration = Duration::from_secs(5);
const QUEUE_DEPTH: usize = 512;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Search,
    ThreeHop,
    Write,
}

impl Class {
    /// Read `i` of a stream: 3 searches, then 2 three-hop explorations.
    fn read(i: u64) -> Class {
        if i % 5 < 3 {
            Class::Search
        } else {
            Class::ThreeHop
        }
    }

    fn hops(self) -> usize {
        match self {
            Class::Search => 2,
            _ => 3,
        }
    }

    fn pattern(self) -> &'static [u8] {
        match self {
            Class::Search => PATTERN,
            _ => b"",
        }
    }

    fn priority(self) -> Priority {
        match self {
            Class::Search => Priority::Interactive,
            Class::ThreeHop => Priority::Normal,
            Class::Write => Priority::Mutation,
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

/// What a finished job reports back.
struct JobOut {
    start: Instant,
    end: Instant,
    /// Nodes visited and pattern matches (reads).
    visited: usize,
    matches: usize,
    /// The query expired or was cancelled mid-flight, or the commit failed.
    failed: bool,
}

/// One submitted operation, harvested after the run.
struct Op {
    class: Class,
    /// Scheduled send time (closed loop: the submit time).
    due: Instant,
    submitted: Instant,
    start_vertex: u64,
    op: u64,
    root: u64,
    traced: bool,
    open_loop: bool,
    ticket: Result<Ticket<JobOut>, ServeError>,
}

/// A harvested operation.
struct Done {
    class: Class,
    due: Instant,
    submitted: Instant,
    start_vertex: u64,
    traced: bool,
    open_loop: bool,
    /// `None` when shed, expired or failed.
    out: Option<JobOut>,
}

/// Everything a job needs, shared by every submission.
struct Env {
    cluster: TrinityCluster,
    graph: Arc<DistributedGraph>,
    rt: Arc<ServeRuntime>,
    coalescer: Arc<Coalescer>,
    ingest: Arc<StreamingIngest>,
    table: Arc<trinity_memcloud::AddressingTable>,
    hook: CallHook,
    /// `hook` wrapped to record a `net.call` span per fan-out call.
    traced_hook: CallHook,
    /// Query trace id → (explore span id, operation id) of traced queries.
    exploring: Arc<Mutex<HashMap<u64, (u64, u64)>>>,
    tracer: Arc<Tracer>,
}

struct SetupTimes {
    total_s: f64,
    gen_s: f64,
    bringup_s: f64,
    load_s: f64,
}

fn setup(seed: u64, tracer: &Arc<Tracer>) -> (Env, Csr, SetupTimes) {
    let op = tracer.id();
    let root = tracer.id();
    let t0 = Instant::now();
    let (csr, gen_s) = tracer.span(root, op, "graphgen.gen", || {
        trinity_graphgen::social(N, DEGREE, seed)
    });
    let (cluster, bringup_s) = tracer.span(root, op, "memcloud.bringup", || {
        let mut cloud = CloudConfig::new(SLAVES);
        // The whole cluster shares one host: keep the runnable thread
        // population small, as the serving runtime's own load test does.
        cloud.workers_per_machine = 2;
        TrinityCluster::new(TrinityConfig {
            cloud,
            proxies: 1,
            clients: 1,
        })
    });
    let name_seed = seed;
    let (graph, load_s) = tracer.span(root, op, "graph.load", || {
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> =
            Arc::new(move |v| trinity_graphgen::names::name_for(name_seed, v).into_bytes());
        let opts = LoadOptions {
            with_in_links: true,
            attrs: Some(attrs),
        };
        Arc::new(load_graph(Arc::clone(cluster.cloud()), &csr, &opts).expect("load graph"))
    });
    let ((rt, coalescer, ingest, table), _) = tracer.span(root, op, "serve.install", || {
        let cloud = cluster.cloud();
        // Installs the EXPAND handlers; the handlers keep what they use.
        let _explorer = Explorer::install(Arc::clone(cloud));
        let svc = TxService::install(Arc::clone(cloud));
        let ingest = Arc::new(StreamingIngest::new(Arc::clone(cloud), svc, 0));
        let proxy = cluster.proxy(0).endpoint();
        let coalescer = Coalescer::new(Arc::clone(proxy));
        let rt = ServeRuntime::start(
            proxy,
            ServeConfig {
                workers: 2,
                queue_capacity: [QUEUE_DEPTH; 4],
                default_deadline: Some(DEADLINE),
            },
        );
        (rt, coalescer, ingest, Arc::new(cloud.node(0).table()))
    });
    let end = Instant::now();
    tracer.record(root, 0, op, "serve.setup", t0, end);
    let hook = coalescer.hook();
    let exploring: Arc<Mutex<HashMap<u64, (u64, u64)>>> = Arc::default();
    let traced_hook: CallHook = {
        let inner = hook.clone();
        let exploring = Arc::clone(&exploring);
        let tracer = Arc::clone(tracer);
        Arc::new(move |dst, proto, payload| {
            let start = Instant::now();
            let reply = inner(dst, proto, payload);
            let end = Instant::now();
            let parent = exploring.lock().get(&trinity_obs::current_trace()).copied();
            if let Some((explore, op)) = parent {
                tracer.record(tracer.id(), explore, op, "net.call", start, end);
            }
            reply
        })
    };
    let env = Env {
        cluster,
        graph,
        rt,
        coalescer,
        ingest,
        table,
        hook,
        traced_hook,
        exploring,
        tracer: Arc::clone(tracer),
    };
    let times = SetupTimes {
        total_s: (end - t0).as_secs_f64(),
        gen_s,
        bringup_s,
        load_s,
    };
    (env, csr, times)
}

impl Env {
    fn shutdown(&self) {
        self.rt.shutdown();
        self.cluster.shutdown();
    }

    /// Send one operation due at `due`; `submit` receives its operation
    /// and root span ids.
    fn op(
        &self,
        class: Class,
        start_vertex: u64,
        due: Instant,
        traced: bool,
        open_loop: bool,
        submit: impl FnOnce(u64, u64) -> Result<Ticket<JobOut>, ServeError>,
    ) -> Op {
        let (op, root) = (self.tracer.id(), self.tracer.id());
        let submitted = Instant::now();
        Op {
            class,
            due,
            submitted,
            start_vertex,
            op,
            root,
            traced,
            open_loop,
            ticket: submit(op, root),
        }
    }

    /// Submit one read; the job explores and reports its counts.
    fn submit_read(
        self: &Arc<Self>,
        class: Class,
        v: u64,
        traced: bool,
        op: u64,
        root: u64,
    ) -> Result<Ticket<JobOut>, ServeError> {
        let env = Arc::clone(self);
        self.rt
            .submit(class.priority(), None, move |ctx: &QueryCtx| {
                let start = Instant::now();
                let explore = if traced {
                    let id = env.tracer.id();
                    env.exploring.lock().insert(ctx.trace, (id, op));
                    id
                } else {
                    0
                };
                let opts = ExploreOptions {
                    cancel: Some(ctx.cancel.clone()),
                    call: Some(if traced {
                        env.traced_hook.clone()
                    } else {
                        env.hook.clone()
                    }),
                    ..ExploreOptions::default()
                };
                let endpoint = env.cluster.proxy(0).endpoint();
                let r = explore_via(
                    endpoint,
                    &env.table,
                    SLAVES,
                    v,
                    class.hops(),
                    class.pattern(),
                    &opts,
                );
                let end = Instant::now();
                if traced {
                    env.exploring.lock().remove(&ctx.trace);
                    env.tracer
                        .record(explore, root, op, "online.explore", start, end);
                }
                JobOut {
                    start,
                    end,
                    visited: r.visited(),
                    matches: r.matches.len(),
                    failed: r.deadline_exceeded || r.cancelled,
                }
            })
    }

    /// Submit one mutation batch through slave `via`.
    fn submit_write(
        self: &Arc<Self>,
        batch: MutationBatch,
        via: usize,
        traced: bool,
        op: u64,
        root: u64,
    ) -> Result<Ticket<JobOut>, ServeError> {
        let env = Arc::clone(self);
        self.rt.submit_mutation(None, move |_ctx: &QueryCtx| {
            let start = Instant::now();
            let ok = env.ingest.commit_batch(via, &batch).is_ok();
            let end = Instant::now();
            if traced {
                env.tracer
                    .record(env.tracer.id(), root, op, "streaming.commit", start, end);
            }
            JobOut {
                start,
                end,
                visited: 0,
                matches: 0,
                failed: !ok,
            }
        })
    }
}

fn harvest(ops: Vec<Op>, tracer: &Tracer) -> Vec<Done> {
    ops.into_iter()
        .map(|o| {
            let out = o
                .ticket
                .ok()
                .and_then(|t| t.wait().ok())
                .filter(|j| !j.failed);
            if o.traced {
                let end = out.as_ref().map_or(o.submitted, |j| j.end);
                let name = if o.class == Class::Write {
                    "serve.write"
                } else {
                    "serve.query"
                };
                tracer.record(o.root, 0, o.op, name, o.due, end);
                tracer.record(
                    tracer.id(),
                    o.root,
                    o.op,
                    "serve.gen_late",
                    o.due,
                    o.submitted,
                );
                if let Some(j) = &out {
                    tracer.record(
                        tracer.id(),
                        o.root,
                        o.op,
                        "serve.queue_wait",
                        o.submitted,
                        j.start,
                    );
                }
            }
            Done {
                class: o.class,
                due: o.due,
                submitted: o.submitted,
                start_vertex: o.start_vertex,
                traced: o.traced,
                open_loop: o.open_loop,
                out,
            }
        })
        .collect()
}

/// Open-loop generator: operation `i` is due at `t0 + i / rate` whether
/// or not earlier ones finished. `make` submits operation `i`.
fn open_loop(
    t0: Instant,
    rate: f64,
    stop: impl Fn(Instant) -> bool,
    mut make: impl FnMut(u64, Instant) -> Op,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0u64.. {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        if stop(due) {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        ops.push(make(i, due));
    }
    ops
}

pub fn run(args: &Args, tracer: &Arc<Tracer>, writes: bool) -> Result<Report, String> {
    let read_qps = args.read_qps.ok_or("serve workloads need --read-qps")?;
    let write_bps = if writes {
        Some(args.write_bps.ok_or("serve-write needs --write-bps")?)
    } else {
        None
    };
    // The measured cluster is set up first; the other set-ups run after
    // the measurement, so its peak memory is read before any teardown.
    let (env, csr, first) = setup(args.seed, tracer);
    let env = Arc::new(env);

    let seconds = args.seconds.as_secs_f64();
    let open_s = seconds * OPEN_SHARE;
    let closed_s = seconds - open_s;
    let mut report = Report::new();
    counters::memstore(&mut report, env.cluster.cloud(), csr.arc_count());
    let net_before = counters::totals(env.cluster.cloud());
    let counts_before = env.rt.counts();
    let coalesce_before = (env.coalescer.hits(), env.coalescer.misses());

    // Open loop. A traced run traces every other operation, so the
    // untraced ones, interleaved with them, measure the tracing overhead.
    let t0 = Instant::now();
    let open_end = t0 + Duration::from_secs_f64(open_s);
    let traced = |i: u64| tracer.on() && i % 2 == 1;
    let stop_writes = AtomicBool::new(false);
    let steal = StealMonitor::start();
    let mut setups = vec![first];
    let (reads, writes, batches) = std::thread::scope(|s| {
        let writer = write_bps.map(|bps| {
            let (env, csr, stop) = (&env, &csr, &stop_writes);
            let mut rng = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            s.spawn(move || {
                let ops = open_loop(
                    t0,
                    bps,
                    |_| stop.load(Ordering::Relaxed),
                    |i, due| {
                        let batch = mutation_batch(&mut rng, csr);
                        let traced = traced(i) && due < open_end;
                        env.op(Class::Write, 0, due, traced, due < open_end, |op, root| {
                            env.submit_write(batch, i as usize % SLAVES, traced, op, root)
                        })
                    },
                );
                harvest(ops, &env.tracer)
            })
        });
        let mut rng = args.seed.wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
        let ops = open_loop(
            t0,
            read_qps,
            |due| due >= open_end,
            |i, due| {
                let v = xorshift(&mut rng) % N as u64;
                let (class, traced) = (Class::read(i), traced(i));
                env.op(class, v, due, traced, true, |op, root| {
                    env.submit_read(class, v, traced, op, root)
                })
            },
        );
        let mut reads = harvest(ops, &env.tracer);
        // Closed loop: read batches, CLIENTS queries in flight, with a
        // set-up between batches until there are SETUPS.
        let (done, batches) = closed_loop(args.seed, closed_s, Some(&mut setups), |c, salt| {
            let mut rng = (args.seed ^ (salt + c + 1).wrapping_mul(0xA24B_AED4_963E_E407)) | 1;
            (0..(BATCH / CLIENTS) as u64)
                .flat_map(|i| {
                    let v = xorshift(&mut rng) % N as u64;
                    let (class, traced) = (Class::read(i), env.tracer.on());
                    let op = env.op(class, v, Instant::now(), traced, false, |op, root| {
                        env.submit_read(class, v, traced, op, root)
                    });
                    harvest(vec![op], &env.tracer)
                })
                .collect()
        });
        reads.extend(done);
        stop_writes.store(true, Ordering::Relaxed);
        let writes = writer.map_or_else(Vec::new, |w| w.join().expect("write generator"));
        (reads, writes, batches)
    });
    let steal = steal.finish();
    summarize(
        &mut report,
        &env,
        &reads,
        &writes,
        &batches,
        &steal,
        tracer.on(),
    );
    let after = counters::totals(env.cluster.cloud());
    counters::net(&mut report, &net_before, &after);
    if write_bps.is_some() {
        report.layer(
            "streaming.abort_ratio",
            ratio(
                counters::delta(&net_before, &after, "stream.tx_aborts"),
                counters::delta(&net_before, &after, "stream.batches"),
            ),
        );
    }
    let counts = env.rt.counts();
    report.layer(
        "serve.shed",
        (counts.shed_total() - counts_before.shed_total()) as f64,
    );
    report.layer(
        "serve.expired",
        (counts.expired_in_queue - counts_before.expired_in_queue) as f64,
    );
    let hits = (env.coalescer.hits() - coalesce_before.0) as f64;
    let misses = (env.coalescer.misses() - coalesce_before.1) as f64;
    report.layer("serve.coalesce_hit_ratio", ratio(hits, hits + misses));

    // Output check.
    let mismatches = if writes.is_empty() {
        check_reads(&csr, args.seed, &reads)
    } else {
        check_end_state(&env, &csr)
    };
    if mismatches > 0 {
        eprintln!("output check: {mismatches} mismatches");
        report.correct = false;
        report.ops(0, mismatches);
    }
    report.e2e("peak_rss_mb", crate::report::peak_rss_mb());
    env.shutdown();
    while setups.len() < SETUPS {
        setups.push(setup_only(args.seed));
    }
    summarize_setups(&mut report, &setups);
    Ok(report)
}

/// Set a cluster up untraced and tear it down.
fn setup_only(seed: u64) -> SetupTimes {
    let (env, _, times) = setup(seed, &Arc::new(Tracer::new(false)));
    env.shutdown();
    times
}

/// Closed loop: batches of operations with CLIENTS in flight, for
/// `seconds` (at least MIN_BATCHES batches). `client(c, salt)` runs client
/// `c`'s share of one batch. Between batches, more clusters are set up
/// (untimed by the batch) until `setups` holds SETUPS, so the set-up
/// samples spread over the run. Returns the operations and each batch's
/// wall-clock interval.
fn closed_loop(
    seed: u64,
    seconds: f64,
    mut setups: Option<&mut Vec<SetupTimes>>,
    client: impl Fn(u64, u64) -> Vec<Done> + Sync,
) -> (Vec<Done>, Vec<(Instant, Instant)>) {
    let t0 = Instant::now();
    let mut ops = Vec::new();
    let mut batches = Vec::new();
    while batches.len() < MIN_BATCHES || t0.elapsed().as_secs_f64() < seconds {
        let salt = (batches.len() * CLIENTS) as u64;
        let b0 = Instant::now();
        let done: Vec<Vec<Done>> = std::thread::scope(|cs| {
            let running: Vec<_> = (0..CLIENTS as u64)
                .map(|c| {
                    let client = &client;
                    cs.spawn(move || client(c, salt))
                })
                .collect();
            running
                .into_iter()
                .map(|c| c.join().expect("closed-loop client"))
                .collect()
        });
        batches.push((b0, Instant::now()));
        ops.extend(done.into_iter().flatten());
        if let Some(setups) = setups.as_deref_mut().filter(|s| s.len() < SETUPS) {
            setups.push(setup_only(seed));
        }
    }
    (ops, batches)
}

/// `write-capacity`: mutation batches per second the serve-write cluster
/// commits with CLIENTS closed-loop writers and no reads, for the whole
/// run. Not a benchmarked workload: it is the basis of serve-write's
/// `--write-bps`. Its output check is serve-write's.
pub fn write_capacity(args: &Args) -> Report {
    let tracer = Arc::new(Tracer::new(false));
    let (env, csr, _) = setup(args.seed, &tracer);
    let env = Arc::new(env);
    let (writes, batches) = closed_loop(args.seed, args.seconds.as_secs_f64(), None, |c, salt| {
        let mut rng = (args.seed ^ (salt + c + 1).wrapping_mul(0x94D0_49BB_1331_11EB)) | 1;
        (0..(WRITE_BATCH / CLIENTS) as u64)
            .flat_map(|i| {
                let batch = mutation_batch(&mut rng, &csr);
                let via = (c + 2 * i) as usize % SLAVES;
                let op = env.op(Class::Write, 0, Instant::now(), false, false, |op, root| {
                    env.submit_write(batch, via, false, op, root)
                });
                harvest(vec![op], &tracer)
            })
            .collect()
    });
    let mut report = Report::new();
    let failed = writes.iter().filter(|d| d.out.is_none()).count() as u64;
    report.ops(writes.len() as u64, failed);
    let busy_s: f64 = batches.iter().map(|&(a, b)| (b - a).as_secs_f64()).sum();
    report.layer(
        "write_capacity_bps",
        ratio((WRITE_BATCH * batches.len()) as f64, busy_s),
    );
    let mismatches = check_end_state(&env, &csr);
    if mismatches > 0 {
        report.correct = false;
        report.ops(0, mismatches);
    }
    env.shutdown();
    report
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn summarize(
    report: &mut Report,
    env: &Env,
    reads: &[Done],
    writes: &[Done],
    batches: &[(Instant, Instant)],
    steal: &StealLog,
    traced: bool,
) {
    let all: Vec<&Done> = reads.iter().chain(writes).collect();
    let failed = all.iter().filter(|d| d.out.is_none()).count() as u64;
    report.ops(all.len() as u64, failed);

    let latency = |d: &Done| d.out.as_ref().map(|j| ms(j.end - d.due));
    let open: Vec<&Done> = all.iter().copied().filter(|d| d.open_loop).collect();
    let pooled = |t: bool| -> Vec<f64> {
        open.iter()
            .filter(|d| d.traced == t)
            .filter_map(|d| latency(d))
            .collect()
    };
    let untraced = pooled(false);
    // End-to-end timings: the batches, and the open-loop operations of the
    // one-second windows, that the host disturbed least (a 2 ms query
    // slows to 5 ms in a second when the host steals a tenth of the CPU).
    let batch_s: Vec<f64> = batches
        .iter()
        .map(|&(a, b)| (b - a).as_secs_f64())
        .collect();
    let calm_batches = steal.calmest(
        &batches
            .iter()
            .map(|&(a, b)| ((b - a).as_secs_f64(), a, b))
            .collect::<Vec<_>>(),
    );
    let t_first = open
        .iter()
        .map(|d| d.due)
        .min()
        .unwrap_or_else(Instant::now);
    let window = |d: &Done| (d.due - t_first).as_secs() as u32;
    let windows: Vec<(u32, Instant, Instant)> =
        (0..=open.iter().map(|d| window(d)).max().unwrap_or(0))
            .map(|w| {
                let a = t_first + Duration::from_secs(u64::from(w));
                (w, a, a + Duration::from_secs(1))
            })
            .collect();
    let calm_windows = steal.calmest(&windows);
    let calm_ops: Vec<f64> = open
        .iter()
        .filter(|d| !d.traced && calm_windows.contains(&window(d)))
        .filter_map(|d| latency(d))
        .collect();
    report.e2e("job_s", median(&calm_batches));
    report.e2e("p50_ms", quantile(&calm_ops, 0.5));
    report.e2e("p90_ms", quantile(&calm_ops, 0.9));
    eprintln!(
        "every sample, no steal filter: job_s={} p50_ms={} p90_ms={}",
        median(&batch_s),
        quantile(&untraced, 0.5),
        quantile(&untraced, 0.9)
    );
    eprintln!(
        "samples: {} of {} open-loop operations kept as least disturbed (p90 has {} beyond it), \
         {} of {} closed-loop batches of {BATCH}",
        calm_ops.len(),
        untraced.len(),
        calm_ops.len() / 10,
        calm_batches.len(),
        batches.len()
    );

    // Per-class figures from the traced operations (traced run) or the whole
    // open loop (untraced run).
    let sample: Vec<&Done> = open
        .iter()
        .copied()
        .filter(|d| d.traced == traced)
        .collect();
    let of = |c: Class| -> Vec<&Done> { sample.iter().copied().filter(|d| d.class == c).collect() };
    for (class, p50, p90) in [
        (Class::Search, "search_p50_ms", "search_p90_ms"),
        (Class::ThreeHop, "threehop_p50_ms", "threehop_p90_ms"),
        (Class::Write, "write_p50_ms", "write_p90_ms"),
    ] {
        let l: Vec<f64> = of(class).into_iter().filter_map(latency).collect();
        if !l.is_empty() {
            report.layer(p50, quantile(&l, 0.5));
            report.layer(p90, quantile(&l, 0.9));
        }
    }
    report.layer(
        "capacity_qps",
        ratio((BATCH * batch_s.len()) as f64, batch_s.iter().sum()),
    );
    let late: Vec<f64> = open.iter().map(|d| ms(d.submitted - d.due)).collect();
    report.layer("gen.late_ms_p90", quantile(&late, 0.9));
    report.layer("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));

    let explore = |c: Class| -> Vec<f64> {
        of(c)
            .iter()
            .filter_map(|d| d.out.as_ref().map(|j| ms(j.end - j.start)))
            .collect()
    };
    report.layer(
        "online.explore_ms_p50.search",
        median(&explore(Class::Search)),
    );
    report.layer(
        "online.explore_ms_p50.threehop",
        median(&explore(Class::ThreeHop)),
    );
    let visited: Vec<f64> = sample
        .iter()
        .filter(|d| d.class != Class::Write)
        .filter_map(|d| d.out.as_ref().map(|j| j.visited as f64))
        .collect();
    report.layer("online.visited_per_query", mean(&visited));
    let queue_wait = |c: &dyn Fn(Class) -> bool| -> Vec<f64> {
        sample
            .iter()
            .filter(|d| c(d.class))
            .filter_map(|d| {
                d.out
                    .as_ref()
                    .map(|j| ms(j.start.saturating_duration_since(d.due)))
            })
            .collect()
    };
    let read_wait = queue_wait(&|c| c != Class::Write);
    report.layer("serve.queue_wait_ms_p50", quantile(&read_wait, 0.5));
    report.layer("serve.queue_wait_ms_p90", quantile(&read_wait, 0.9));
    if !writes.is_empty() {
        report.layer(
            "streaming.queue_wait_ms_p50",
            median(&queue_wait(&|c| c == Class::Write)),
        );
        let commit: Vec<f64> = of(Class::Write)
            .iter()
            .filter_map(|d| d.out.as_ref().map(|j| ms(j.end - j.start)))
            .collect();
        report.layer("streaming.commit_ms_p50", median(&commit));
    }
    if traced {
        let spans = env.tracer.spans();
        let selfs = spans.self_times();
        let calls: Vec<f64> = spans
            .0
            .iter()
            .filter(|s| s.name == "net.call")
            .map(|s| s.dur_us() / 1e3)
            .collect();
        let explores: Vec<f64> = spans
            .0
            .iter()
            .filter(|s| s.name == "online.explore")
            .map(|s| selfs[&s.id] / 1e3)
            .collect();
        report.layer("net.call_ms_p50", median(&calls));
        report.layer(
            "net.calls_per_query",
            ratio(calls.len() as f64, explores.len() as f64),
        );
        report.layer("online.self_ms_p50", median(&explores));
        report.layer(
            "trace.overhead_pct",
            (ratio(quantile(&pooled(true), 0.5), quantile(&untraced, 0.5)) - 1.0) * 100.0,
        );
    }
}

fn summarize_setups(report: &mut Report, setups: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.e2e("setup_s", med(|s| s.total_s));
    report.layer("graphgen.gen_s", med(|s| s.gen_s));
    report.layer("memcloud.bringup_s", med(|s| s.bringup_s));
    report.layer("graph.load_s", med(|s| s.load_s));
}

/// Breadth-first reference of an exploration on the CSR: nodes within
/// `hops` out-hops of `start`, and how many of them match the pattern.
fn reference(csr: &Csr, names: &[bool], start: u64, hops: usize, search: bool) -> (usize, usize) {
    let mut seen: HashSet<u64> = HashSet::from([start]);
    let mut frontier = vec![start];
    let mut matches = 0;
    for hop in 0..=hops {
        let mut next = Vec::new();
        for &v in &frontier {
            if search && names[v as usize] {
                matches += 1;
            }
            if hop < hops {
                next.extend(csr.neighbors(v).iter().copied().filter(|&w| seen.insert(w)));
            }
        }
        frontier = next;
    }
    (seen.len(), matches)
}

/// serve-read: every completed, non-partial query against the CSR.
fn check_reads(csr: &Csr, seed: u64, reads: &[Done]) -> u64 {
    let names: Vec<bool> = (0..csr.node_count() as u64)
        .map(|v| {
            trinity_graphgen::names::name_for(seed, v)
                .as_bytes()
                .windows(PATTERN.len())
                .any(|w| w == PATTERN)
        })
        .collect();
    let mut memo: HashMap<(u64, usize), (usize, usize)> = HashMap::new();
    let mut bad = 0;
    for d in reads {
        if let Some(j) = &d.out {
            let search = d.class == Class::Search;
            let want = *memo
                .entry((d.start_vertex, d.class.hops()))
                .or_insert_with(|| reference(csr, &names, d.start_vertex, d.class.hops(), search));
            let got = (j.visited, if search { j.matches } else { 0 });
            if got != want {
                eprintln!(
                    "query from {} ({:?}): got {got:?}, reference {want:?}",
                    d.start_vertex, d.class
                );
                bad += 1;
            }
        }
    }
    bad
}

/// serve-write: after quiescence the cloud's topology must equal the
/// base graph with every committed batch replayed in log order.
fn check_end_state(env: &Env, csr: &Csr) -> u64 {
    let mut base = Topology::new();
    for v in 0..csr.node_count() as u64 {
        base.add_vertex(v);
    }
    for (u, v) in csr.arcs() {
        base.add_edge(u, v);
    }
    let want = env.ingest.log().replay_onto(base);
    let got = Topology::from_graph(&env.graph);
    if got == want {
        0
    } else {
        // `replay_onto` skips a batch whose sequence number is not above
        // the one before it, so a batch logged out of order is lost.
        let log = env.ingest.log().snapshot();
        let out_of_order = log.windows(2).filter(|w| w[1].seq < w[0].seq).count();
        eprintln!(
            "end state differs from the mutation log replayed onto the base graph \
             ({} batches logged, {out_of_order} after a later sequence number)",
            log.len()
        );
        1
    }
}

fn mutation_batch(rng: &mut u64, csr: &Csr) -> MutationBatch {
    let n = csr.node_count() as u64;
    let muts = (0..MUTATIONS_PER_BATCH)
        .map(|k| {
            let a = xorshift(rng) % n;
            let outs = csr.neighbors(a);
            if k == MUTATIONS_PER_BATCH - 1 && !outs.is_empty() {
                // Remove an edge of the base graph (a no-op if an earlier
                // batch already removed it).
                Mutation::RemoveEdge(a, outs[(xorshift(rng) % outs.len() as u64) as usize])
            } else {
                Mutation::AddEdge(a, xorshift(rng) % n)
            }
        })
        .collect();
    MutationBatch::new(muts)
}
