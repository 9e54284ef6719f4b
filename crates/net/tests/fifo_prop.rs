//! Property tests on the fabric's delivery guarantees.
//!
//! Invariants: per-(src, dst) FIFO order of packed one-way messages under
//! arbitrary send/flush interleavings, and exactly-once delivery
//! regardless of packing boundaries, for per-frame and batch handlers.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use trinity_net::{Fabric, FabricConfig, MachineId};

#[derive(Debug, Clone)]
enum SendOp {
    /// Send one message to the destination machine (1 or 2).
    Send { dst: u16 },
    /// Flush the named destination's pack buffer.
    Flush { dst: u16 },
    /// Flush everything.
    FlushAll,
}

fn op_strategy() -> impl Strategy<Value = SendOp> {
    prop_oneof![
        6 => (1u16..=2).prop_map(|dst| SendOp::Send { dst }),
        2 => (1u16..=2).prop_map(|dst| SendOp::Flush { dst }),
        1 => Just(SendOp::FlushAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_delivery_is_fifo_and_exactly_once(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let fabric = Fabric::new(FabricConfig {
            call_timeout: Duration::from_secs(5),
            ..FabricConfig::with_machines(3)
        });
        let seen: Arc<Mutex<Vec<Vec<u32>>>> = Arc::new(Mutex::new(vec![Vec::new(); 3]));
        // Machine 1 handles frame by frame, machine 2 a run at a time.
        {
            let seen = Arc::clone(&seen);
            fabric.endpoint(MachineId(1)).register(30, move |_src, p| {
                seen.lock()[1].push(u32::from_le_bytes(p.try_into().unwrap()));
                None
            });
        }
        {
            let seen = Arc::clone(&seen);
            fabric.endpoint(MachineId(2)).register_batch(30, move |_src, run| {
                let mut seen = seen.lock();
                for f in run {
                    seen[2].push(u32::from_le_bytes(f.payload[..].try_into().unwrap()));
                }
            });
        }
        let sender = fabric.endpoint(MachineId(0));
        let mut sent: Vec<Vec<u32>> = vec![Vec::new(); 3];
        let mut seq = 0u32;
        for op in &ops {
            match op {
                SendOp::Send { dst } => {
                    sender.send(MachineId(*dst), 30, &seq.to_le_bytes());
                    sent[*dst as usize].push(seq);
                    seq += 1;
                }
                SendOp::Flush { dst } => sender.flush_to(MachineId(*dst)),
                SendOp::FlushAll => sender.flush(),
            }
        }
        sender.flush();
        let total: usize = sent.iter().map(Vec::len).sum();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.lock().iter().map(Vec::len).sum::<usize>() < total
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = seen.lock();
        for dst in 1..=2usize {
            prop_assert_eq!(
                &seen[dst],
                &sent[dst],
                "per-pair FIFO broken to machine {}", dst
            );
        }
        fabric.shutdown();
    }

    #[test]
    fn stats_count_every_frame_exactly_once(msgs in 1usize..200, chunk in 1usize..50) {
        let fabric = Fabric::new(FabricConfig::with_machines(2));
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let counter = Arc::clone(&counter);
            fabric.endpoint(MachineId(1)).register(31, move |_src, _p| {
                counter.fetch_add(1, Ordering::SeqCst);
                None
            });
        }
        let a = fabric.endpoint(MachineId(0));
        for i in 0..msgs {
            a.send(MachineId(1), 31, &(i as u64).to_le_bytes());
            if i % chunk == 0 {
                a.flush_to(MachineId(1));
            }
        }
        a.flush();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < msgs && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        prop_assert_eq!(counter.load(Ordering::SeqCst), msgs, "lost or duplicated frames");
        let stats = a.stats().snapshot();
        prop_assert_eq!(stats.remote_frames as usize, msgs);
        prop_assert!(stats.remote_envelopes as usize <= msgs);
        prop_assert!(stats.remote_envelopes >= 1);
        fabric.shutdown();
    }
}
