//! Per-layer figures read from the counters the program already exports:
//! the `obs` registry, trunk statistics and tiering statistics.

use trinity_memcloud::{MemoryCloud, TierStats};
use trinity_obs::MachineSnapshot;

use crate::report::{ratio, Report};

/// Cluster-wide totals of the registry (every machine summed).
pub fn totals(cloud: &MemoryCloud) -> MachineSnapshot {
    cloud.fabric().obs().snapshot().totals()
}

fn counter(s: &MachineSnapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

/// Fabric figures for the activity between two registry totals.
pub fn net(report: &mut Report, before: &MachineSnapshot, after: &MachineSnapshot) {
    let d = before.delta_to(after);
    let frames = counter(&d, "net.frames.sent");
    report.layer("net.frames_sent", frames);
    report.layer(
        "net.frames_per_envelope",
        ratio(frames, counter(&d, "net.env.sent")),
    );
    report.layer(
        "net.bytes_per_frame",
        ratio(counter(&d, "net.bytes.sent"), frames),
    );
    let handler = d.hists.get("net.handler.us").copied().unwrap_or_default();
    report.layer(
        "net.handler_us_per_frame",
        ratio(handler.sum as f64, handler.count as f64),
    );
    report.layer(
        "net.copies_per_payload_byte",
        ratio(
            counter(&d, "net.frame_copy_bytes"),
            counter(&d, "net.frame_payload_bytes"),
        ),
    );
}

/// A counter's growth between two registry totals.
pub fn delta(before: &MachineSnapshot, after: &MachineSnapshot, name: &str) -> f64 {
    counter(after, name) - counter(before, name)
}

/// Trunk footprint after a graph of `arcs` directed edges was loaded.
pub fn memstore(report: &mut Report, cloud: &MemoryCloud, arcs: usize) {
    let (mut committed, mut used, mut live) = (0usize, 0usize, 0usize);
    for m in 0..cloud.machines() {
        let s = cloud.node(m).store().stats();
        committed += s.committed_bytes;
        used += s.used_bytes;
        live += s.live_payload_bytes;
    }
    report.layer(
        "memstore.bytes_per_edge",
        ratio(committed as f64, arcs as f64),
    );
    report.layer("memstore.live_ratio", ratio(live as f64, used as f64));
}

/// Tiering activity between two `tier_stats` readings.
pub fn tier_delta(before: &TierStats, after: &TierStats) -> TierStats {
    TierStats {
        spills: after.spills - before.spills,
        spill_bytes: after.spill_bytes - before.spill_bytes,
        faults: after.faults - before.faults,
        fault_bytes: after.fault_bytes - before.fault_bytes,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        prefetch_misses: after.prefetch_misses - before.prefetch_misses,
        spilled_trunks: after.spilled_trunks,
        resident_bytes: after.resident_bytes,
    }
}
