//! Asynchronous recursive exploration — the paper's literal §5.1
//! mechanism.
//!
//! "The algorithm simply sends asynchronous requests recursively to remote
//! machines, and the performance is achieved by efficient memory access
//! and optimization of network communication."
//!
//! Unlike the level-synchronous [`crate::online::Explorer`] (which the
//! coordinator drives hop by hop), the asynchronous explorer has **no
//! coordinator in the data path**: a machine receiving a frontier batch
//! expands it against its local cells and immediately forwards the
//! discovered neighbors to *their* owners, recursively, with the hop
//! budget decremented in flight. Three properties make it correct:
//!
//! * **owner-side deduplication** — every cell has exactly one owner, so
//!   each machine's local visited-set globally deduplicates its own
//!   cells, with no shared state. An id that reaches a non-owner (the
//!   sender's table was stale) is forwarded to its owner, not recorded;
//! * **monotone depth refinement** — asynchrony can deliver a long path
//!   before a short one; a node reached again at a *smaller* depth is
//!   re-expanded with the larger remaining budget, so final depths equal
//!   BFS distances;
//! * **distributed termination detection** — batches form a spawn tree
//!   and acknowledgments flow leaf-to-root (Dijkstra–Scholten): a batch
//!   acks its parent only after all the batches it spawned have acked it,
//!   so the seed batch's ack reaching the coordinator proves global
//!   quiescence even under arbitrary message reordering.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use trinity_graph::GraphHandle;
use trinity_memcloud::{CellId, MemoryCloud};
use trinity_net::MachineId;

use crate::online::ExplorationResult;
use crate::proto;

/// Per-query, per-machine exploration state.
#[derive(Default)]
struct QueryLocal {
    /// Best (smallest) depth at which each locally-owned node was seen.
    depth: HashMap<CellId, u32>,
    /// Locally-owned nodes whose attributes matched the pattern.
    matches: Vec<CellId>,
}

/// A batch awaiting acknowledgments from the batches it spawned.
struct PendingBatch {
    parent: MachineId,
    parent_batch: u64,
    remaining: usize,
}

struct MachineState {
    queries: Mutex<HashMap<u64, QueryLocal>>,
    /// (query, local batch id) → pending ack bookkeeping.
    pending: Mutex<HashMap<(u64, u64), PendingBatch>>,
    /// Coordinator side: queries whose seed batch has been fully acked.
    done: Mutex<HashMap<u64, bool>>,
    cv: Condvar,
    next_batch: AtomicU64,
}

/// Batches below this size expand serially; see
/// [`crate::online`]'s identical threshold for rationale.
const PARALLEL_BATCH: usize = 256;

/// The asynchronous recursive exploration engine.
pub struct AsyncExplorer {
    cloud: Arc<MemoryCloud>,
    states: Vec<Arc<MachineState>>,
    /// Resolved expansion-pool width per machine.
    workers: Vec<usize>,
    next_query: AtomicU64,
}

impl std::fmt::Debug for AsyncExplorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncExplorer")
            .field("machines", &self.states.len())
            .finish()
    }
}

// --- Wire formats ---------------------------------------------------------

/// EXPLORE_ASYNC: qid | parent machine | parent batch | depth | hops_left |
/// pattern | ids.
fn encode_batch(
    qid: u64,
    parent: MachineId,
    parent_batch: u64,
    depth: u32,
    hops_left: u32,
    pattern: &[u8],
    ids: &[CellId],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + pattern.len() + ids.len() * 8);
    out.extend_from_slice(&qid.to_le_bytes());
    out.extend_from_slice(&parent.0.to_le_bytes());
    out.extend_from_slice(&parent_batch.to_le_bytes());
    out.extend_from_slice(&depth.to_le_bytes());
    out.extend_from_slice(&hops_left.to_le_bytes());
    out.extend_from_slice(&(pattern.len() as u16).to_le_bytes());
    out.extend_from_slice(pattern);
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

struct Batch {
    qid: u64,
    parent: MachineId,
    parent_batch: u64,
    depth: u32,
    hops_left: u32,
    pattern: Vec<u8>,
    ids: Vec<CellId>,
}

fn decode_batch(data: &[u8]) -> Option<Batch> {
    if data.len() < 28 {
        return None;
    }
    let qid = u64::from_le_bytes(data[0..8].try_into().unwrap());
    let parent = MachineId(u16::from_le_bytes(data[8..10].try_into().unwrap()));
    let parent_batch = u64::from_le_bytes(data[10..18].try_into().unwrap());
    let depth = u32::from_le_bytes(data[18..22].try_into().unwrap());
    let hops_left = u32::from_le_bytes(data[22..26].try_into().unwrap());
    let plen = u16::from_le_bytes(data[26..28].try_into().unwrap()) as usize;
    let pattern = data.get(28..28 + plen)?.to_vec();
    let rest = &data[28 + plen..];
    if rest.len() < 4 {
        return None;
    }
    let n = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
    let ids = rest
        .get(4..4 + n * 8)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Some(Batch {
        qid,
        parent,
        parent_batch,
        depth,
        hops_left,
        pattern,
        ids,
    })
}

/// EXPLORE_REPORT (ack): qid | acked batch id.
fn encode_ack(qid: u64, batch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&qid.to_le_bytes());
    out.extend_from_slice(&batch.to_le_bytes());
    out
}

impl AsyncExplorer {
    /// Install the asynchronous exploration protocol on every slave. Each
    /// slave expands large child batches on a trunk-aligned worker pool,
    /// the width [`crate::BspConfig::compute_threads`] defaults to.
    pub fn install(cloud: Arc<MemoryCloud>) -> Arc<Self> {
        let workers: Vec<usize> = (0..cloud.machines())
            .map(|m| {
                let trunks = cloud.node(m).table().trunks_of(MachineId(m as u16)).len();
                crate::bsp::resolve_compute_threads(0, trunks)
            })
            .collect();
        let states: Vec<Arc<MachineState>> = (0..cloud.machines())
            .map(|_| {
                Arc::new(MachineState {
                    queries: Mutex::new(HashMap::new()),
                    pending: Mutex::new(HashMap::new()),
                    done: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                    next_batch: AtomicU64::new(1),
                })
            })
            .collect();
        let explorer = Arc::new(AsyncExplorer {
            cloud: Arc::clone(&cloud),
            states,
            workers,
            next_query: AtomicU64::new(1),
        });
        for m in 0..cloud.machines() {
            let endpoint = cloud.node(m).endpoint();
            // Frontier batches.
            {
                let explorer = Arc::clone(&explorer);
                let handle = GraphHandle::new(Arc::clone(cloud.node(m)));
                endpoint.register(proto::EXPLORE_ASYNC, move |_src, data| {
                    if let Some(batch) = decode_batch(data) {
                        explorer.handle_batch(m, &handle, batch);
                    }
                    None
                });
            }
            // Acks: a child batch finished; maybe complete ours too.
            {
                let explorer = Arc::clone(&explorer);
                endpoint.register(proto::EXPLORE_REPORT, move |_src, data| {
                    if data.len() >= 16 {
                        let qid = u64::from_le_bytes(data[..8].try_into().unwrap());
                        let batch = u64::from_le_bytes(data[8..16].try_into().unwrap());
                        explorer.handle_ack(m, qid, batch);
                    }
                    None
                });
            }
            // Result collection: per-depth counts + matches, then cleanup.
            {
                let state = Arc::clone(&explorer.states[m]);
                endpoint.register(proto::EXPLORE_COLLECT, move |_src, data| {
                    if data.len() < 8 {
                        return Some(Vec::new());
                    }
                    let qid = u64::from_le_bytes(data[..8].try_into().unwrap());
                    let local = state.queries.lock().remove(&qid).unwrap_or_default();
                    let mut out = Vec::new();
                    out.extend_from_slice(&(local.depth.len() as u32).to_le_bytes());
                    for d in local.depth.values() {
                        out.extend_from_slice(&d.to_le_bytes());
                    }
                    out.extend_from_slice(&(local.matches.len() as u32).to_le_bytes());
                    for id in &local.matches {
                        out.extend_from_slice(&id.to_le_bytes());
                    }
                    Some(out)
                });
            }
        }
        explorer
    }

    /// Process one inbound frontier batch on machine `m`.
    fn handle_batch(&self, m: usize, handle: &GraphHandle, batch: Batch) {
        let node = self.cloud.node(m);
        let endpoint = node.endpoint();
        // A lapsed deadline (carried in by the envelope and installed on
        // this thread by the fabric) prunes the whole subtree: ack the
        // parent without expanding, so Dijkstra–Scholten termination still
        // completes — with partial results — instead of burning CPU on a
        // query the client has abandoned. The ack must always flow; only
        // the expansion is skipped.
        if trinity_net::deadline_expired() {
            endpoint.send(
                batch.parent,
                proto::EXPLORE_REPORT,
                &encode_ack(batch.qid, batch.parent_batch),
            );
            endpoint.flush_to(batch.parent);
            return;
        }
        let machines = self.cloud.machines();
        let me = MachineId(m as u16);
        // Batches are routed by the sender's table, which may be stale.
        // Ids this machine does not own go on to their owner under the
        // primary table, as a child batch at the same depth: this handler
        // runs on the receiver thread, so it must not read them remotely.
        let mut table = node.table();
        if batch.ids.iter().any(|&id| table.machine_of(id) != me) {
            let _ = node.sync_table();
            table = node.table();
        }
        let mut owned: Vec<CellId> = Vec::with_capacity(batch.ids.len());
        let mut stragglers: Vec<Vec<CellId>> = vec![Vec::new(); machines];
        for &id in &batch.ids {
            match table.machine_of(id) {
                owner if owner == me => owned.push(id),
                owner => stragglers[owner.0 as usize].push(id),
            }
        }
        // Phase 1: local dedup + match + depth refinement.
        let mut fresh: Vec<CellId> = Vec::new();
        {
            let mut queries = self.states[m].queries.lock();
            let local = queries.entry(batch.qid).or_default();
            for &id in &owned {
                match local.depth.get(&id) {
                    Some(&best) if best <= batch.depth => continue,
                    seen => {
                        let first_visit = seen.is_none();
                        local.depth.insert(id, batch.depth);
                        if first_visit && !batch.pattern.is_empty() {
                            let matched = handle
                                .with_node(id, |view| {
                                    view.attrs()
                                        .windows(batch.pattern.len())
                                        .any(|w| w == &batch.pattern[..])
                                })
                                .ok()
                                .flatten()
                                .unwrap_or(false);
                            if matched {
                                local.matches.push(id);
                            }
                        }
                        if batch.hops_left > 0 {
                            fresh.push(id);
                        }
                    }
                }
            }
        }
        // Phase 2: build child batches grouped by owner. Large frontiers
        // split across a scoped pool, each chunk grouping into private
        // per-owner vectors merged afterwards; the sort + dedup below
        // makes the child batches identical to the serial grouping.
        let pool = self.workers[m];
        let mut by_machine: Vec<Vec<CellId>> = vec![Vec::new(); machines];
        if pool > 1 && fresh.len() >= PARALLEL_BATCH {
            let chunk = fresh.len().div_ceil(pool);
            let parts: Vec<Vec<Vec<CellId>>> = std::thread::scope(|scope| {
                let joins: Vec<_> = fresh
                    .chunks(chunk)
                    .map(|part| {
                        let table = &table;
                        scope.spawn(move || {
                            let mut mine: Vec<Vec<CellId>> = vec![Vec::new(); machines];
                            for &id in part {
                                let _ = handle.with_node(id, |view| {
                                    for t in view.outs() {
                                        mine[table.machine_of(t).0 as usize].push(t);
                                    }
                                });
                            }
                            mine
                        })
                    })
                    .collect();
                joins
                    .into_iter()
                    .map(|j| j.join().expect("expand pool worker panicked"))
                    .collect()
            });
            for mine in parts {
                for (owner, mut ids) in mine.into_iter().enumerate() {
                    by_machine[owner].append(&mut ids);
                }
            }
        } else {
            for &id in &fresh {
                let _ = handle.with_node(id, |view| {
                    for t in view.outs() {
                        by_machine[table.machine_of(t).0 as usize].push(t);
                    }
                });
            }
        }
        // Children as (owner, depth, hops left, ids): forwarded stragglers
        // keep this batch's depth, expanded neighbors go one hop deeper.
        let forwarded = stragglers
            .into_iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
            .map(|(owner, ids)| (owner, batch.depth, batch.hops_left, ids));
        let expanded = by_machine
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(owner, mut b)| {
                b.sort_unstable();
                b.dedup();
                (owner, batch.depth + 1, batch.hops_left - 1, b)
            });
        let children: Vec<(usize, u32, u32, Vec<CellId>)> = forwarded.chain(expanded).collect();
        if children.is_empty() {
            // Leaf: ack the parent immediately.
            endpoint.send(
                batch.parent,
                proto::EXPLORE_REPORT,
                &encode_ack(batch.qid, batch.parent_batch),
            );
            endpoint.flush_to(batch.parent);
            return;
        }
        // Register our pending record BEFORE any child can possibly ack.
        let my_batch = self.states[m].next_batch.fetch_add(1, Ordering::Relaxed);
        self.states[m].pending.lock().insert(
            (batch.qid, my_batch),
            PendingBatch {
                parent: batch.parent,
                parent_batch: batch.parent_batch,
                remaining: children.len(),
            },
        );
        for (owner, depth, hops_left, ids) in children {
            let owner = MachineId(owner as u16);
            let payload = encode_batch(
                batch.qid,
                me,
                my_batch,
                depth,
                hops_left,
                &batch.pattern,
                &ids,
            );
            endpoint.send(owner, proto::EXPLORE_ASYNC, &payload);
            endpoint.flush_to(owner);
        }
    }

    /// Process an ack for one of machine `m`'s batches (or, for batch id
    /// 0, the seed ack completing a query this machine coordinates).
    fn handle_ack(&self, m: usize, qid: u64, batch: u64) {
        if batch == 0 {
            let state = &self.states[m];
            state.done.lock().insert(qid, true);
            state.cv.notify_all();
            return;
        }
        let completed = {
            let mut pending = self.states[m].pending.lock();
            match pending.get_mut(&(qid, batch)) {
                Some(p) => {
                    p.remaining -= 1;
                    if p.remaining == 0 {
                        pending.remove(&(qid, batch))
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        if let Some(p) = completed {
            let endpoint = self.cloud.node(m).endpoint();
            endpoint.send(
                p.parent,
                proto::EXPLORE_REPORT,
                &encode_ack(qid, p.parent_batch),
            );
            endpoint.flush_to(p.parent);
        }
    }

    /// Explore the `hops`-neighborhood of `start` from machine `from`,
    /// asynchronously and recursively. Semantics match
    /// [`crate::online::Explorer::explore`].
    pub fn explore(
        &self,
        from: usize,
        start: CellId,
        hops: usize,
        pattern: &[u8],
    ) -> ExplorationResult {
        let qid = self.next_query.fetch_add(1, Ordering::Relaxed);
        let endpoint = self.cloud.node(from).endpoint();
        self.states[from].done.lock().insert(qid, false);
        // Seed batch: parent = the coordinator, parent batch id 0.
        let seed = encode_batch(
            qid,
            MachineId(from as u16),
            0,
            0,
            hops as u32,
            pattern,
            &[start],
        );
        let owner = self.cloud.node(from).table().machine_of(start);
        endpoint.send(owner, proto::EXPLORE_ASYNC, &seed);
        endpoint.flush_to(owner);
        // Wait for the seed's ack.
        {
            let state = &self.states[from];
            let mut done = state.done.lock();
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while !done.get(&qid).copied().unwrap_or(true) {
                if state.cv.wait_until(&mut done, deadline).timed_out() {
                    break;
                }
            }
            done.remove(&qid);
        }
        // Collect per-machine results.
        let mut per_hop = vec![0usize; hops + 1];
        let mut matches: Vec<CellId> = Vec::new();
        let mut machines_with_data = 0usize;
        for peer in 0..self.cloud.machines() as u16 {
            let Ok(reply) =
                endpoint.call(MachineId(peer), proto::EXPLORE_COLLECT, &qid.to_le_bytes())
            else {
                continue;
            };
            let mut at = 0usize;
            let n = u32::from_le_bytes(reply[at..at + 4].try_into().unwrap()) as usize;
            at += 4;
            if n > 0 {
                machines_with_data += 1;
            }
            for _ in 0..n {
                let d = u32::from_le_bytes(reply[at..at + 4].try_into().unwrap()) as usize;
                at += 4;
                if d < per_hop.len() {
                    per_hop[d] += 1;
                }
            }
            let nm = u32::from_le_bytes(reply[at..at + 4].try_into().unwrap()) as usize;
            at += 4;
            for _ in 0..nm {
                matches.push(u64::from_le_bytes(reply[at..at + 8].try_into().unwrap()));
                at += 8;
            }
        }
        matches.sort_unstable();
        matches.dedup();
        // Trim trailing empty hops (mirrors the synchronous explorer's
        // early stop on an exhausted frontier).
        while per_hop.len() > 1 && *per_hop.last().unwrap() == 0 {
            per_hop.pop();
        }
        ExplorationResult {
            per_hop,
            matches,
            batches: machines_with_data,
            deadline_exceeded: false,
            cancelled: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::Explorer;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::CloudConfig;

    fn both_explorers(
        csr: &Csr,
        machines: usize,
        attrs: Option<Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync>>,
    ) -> (Arc<MemoryCloud>, Arc<Explorer>, Arc<AsyncExplorer>) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        load_graph(
            Arc::clone(&cloud),
            csr,
            &LoadOptions {
                with_in_links: false,
                attrs,
            },
        )
        .unwrap();
        let sync = Explorer::install(Arc::clone(&cloud));
        let asyn = AsyncExplorer::install(Arc::clone(&cloud));
        (cloud, sync, asyn)
    }

    #[test]
    fn async_matches_sync_on_a_path() {
        let edges: Vec<(u64, u64)> = (0..19u64).map(|v| (v, v + 1)).collect();
        let csr = Csr::undirected_from_edges(20, &edges, true);
        let (cloud, sync, asyn) = both_explorers(&csr, 3, None);
        for hops in 0..5 {
            let a = asyn.explore(0, 10, hops, b"");
            let s = sync.explore(0, 10, hops, b"");
            assert_eq!(a.per_hop, s.per_hop, "hops={hops}");
        }
        cloud.shutdown();
    }

    #[test]
    fn async_matches_sync_on_random_social_graphs() {
        for seed in [3u64, 7, 11] {
            let csr = trinity_graphgen::social(300, 8, seed);
            let (cloud, sync, asyn) = both_explorers(&csr, 4, None);
            for hops in [1usize, 2, 3, 5] {
                let a = asyn.explore(1, 5, hops, b"");
                let s = sync.explore(1, 5, hops, b"");
                assert_eq!(a.per_hop, s.per_hop, "seed={seed} hops={hops}");
                assert_eq!(a.visited(), s.visited());
            }
            cloud.shutdown();
        }
    }

    #[test]
    fn async_pattern_matching_agrees_with_sync() {
        let csr = trinity_graphgen::social(400, 10, 5);
        let seed = 13u64;
        let attrs: Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync> =
            Arc::new(move |v| trinity_graphgen::names::name_for(seed, v).into_bytes());
        let (cloud, sync, asyn) = both_explorers(&csr, 3, Some(attrs));
        let a = asyn.explore(0, 9, 3, b"David");
        let s = sync.explore(0, 9, 3, b"David");
        assert_eq!(a.matches, s.matches);
        assert_eq!(a.per_hop, s.per_hop);
        cloud.shutdown();
    }

    #[test]
    fn concurrent_async_queries_do_not_interfere() {
        let csr = trinity_graphgen::social(400, 10, 9);
        let (cloud, sync, asyn) = both_explorers(&csr, 4, None);
        let expects: Vec<_> = (0..6u64)
            .map(|s| sync.explore(0, s * 50, 2, b"").per_hop)
            .collect();
        std::thread::scope(|scope| {
            for (i, expect) in expects.iter().enumerate() {
                let asyn = Arc::clone(&asyn);
                scope.spawn(move || {
                    let r = asyn.explore(i % 4, i as u64 * 50, 2, b"");
                    assert_eq!(&r.per_hop, expect, "query {i}");
                });
            }
        });
        cloud.shutdown();
    }

    #[test]
    fn zero_hops_and_isolated_starts() {
        let csr = Csr::undirected_from_edges(5, &[(0, 1)], true);
        let (cloud, _sync, asyn) = both_explorers(&csr, 2, None);
        let r = asyn.explore(0, 3, 4, b""); // node 3 is isolated
        assert_eq!(r.visited(), 1);
        let r = asyn.explore(1, 0, 0, b"");
        assert_eq!(r.visited(), 1);
        cloud.shutdown();
    }

    #[test]
    fn stragglers_are_forwarded_to_their_owner_without_remote_reads() {
        // The start node's trunk moves from machine `from` to `to`; the
        // coordinator keeps the old table, so the seed batch reaches a
        // non-owner, which must forward it instead of reading remotely.
        let csr = trinity_graphgen::social(300, 8, 4);
        let (cloud, sync, asyn) = both_explorers(&csr, 3, None);
        let start = 5u64;
        let expect = sync.explore(0, start, 3, b"").per_hop;
        cloud.backup_all().unwrap();
        let mut table = cloud.node(0).table();
        let trunk = table.trunk_of(start);
        let from = table.machine_for(trunk);
        let to = MachineId((from.0 + 1) % 3);
        let stale = 3 - from.0 as usize - to.0 as usize;
        table.reassign_one(trunk, to);
        cloud
            .tfs()
            .write(trinity_memcloud::TFS_TABLE_PATH, &table.encode())
            .unwrap();
        cloud
            .node(to.0 as usize)
            .install_table(table.clone())
            .unwrap();
        cloud.node(from.0 as usize).install_table(table).unwrap();
        let calls_from = || {
            let snap = cloud.fabric().obs().scope(from.0).snapshot();
            snap.hists.get("net.call.us").map_or(0, |h| h.count)
        };
        let before = calls_from();
        let r = asyn.explore(stale, start, 3, b"");
        assert_eq!(r.per_hop, expect);
        assert_eq!(calls_from(), before, "the non-owner made remote calls");
        cloud.shutdown();
    }

    #[test]
    fn no_leaked_bookkeeping_after_queries() {
        let csr = trinity_graphgen::social(200, 8, 2);
        let (cloud, _sync, asyn) = both_explorers(&csr, 3, None);
        for q in 0..10u64 {
            asyn.explore((q % 3) as usize, q * 13, 3, b"");
        }
        for state in &asyn.states {
            assert!(
                state.pending.lock().is_empty(),
                "pending batch records leaked"
            );
            assert!(state.queries.lock().is_empty(), "query state not collected");
            assert!(state.done.lock().is_empty(), "coordinator state leaked");
        }
        cloud.shutdown();
    }
}
