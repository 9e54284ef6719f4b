//! The host's interference with a run: CPU time the hypervisor gave to
//! other guests while this one wanted it ("steal", `/proc/stat`).
//!
//! On a shared 2-vCPU host steal comes in bursts of a few seconds that
//! take up to a third of the CPU; a 2 ms query caught in one takes 5 ms.
//! The end-to-end timings therefore come from the calmest windows of a
//! run, chosen by steal, which is measured independently of the timings
//! themselves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::report::quantile;

const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Share of a run's jobs, batches or one-second windows, the least
/// disturbed by the host, that the end-to-end timings come from.
const CALM_SHARE: f64 = 0.5;

/// Host steal so far, seconds (summed over CPUs).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Samples the steal counter in the background.
pub struct StealMonitor {
    samples: Arc<Mutex<Vec<(Instant, f64)>>>,
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<()>,
}

impl StealMonitor {
    pub fn start() -> Self {
        let samples = Arc::new(Mutex::new(vec![(Instant::now(), steal_s())]));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_EVERY);
                    samples.lock().push((Instant::now(), steal_s()));
                }
            })
        };
        StealMonitor {
            samples,
            stop,
            sampler,
        }
    }

    pub fn finish(self) -> StealLog {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler.join().expect("steal sampler");
        let mut samples = std::mem::take(&mut *self.samples.lock());
        samples.push((Instant::now(), steal_s()));
        StealLog(samples)
    }
}

/// Steal samples of one run.
pub struct StealLog(Vec<(Instant, f64)>);

impl StealLog {
    /// Steal counter at `t`, linear between samples.
    fn at(&self, t: Instant) -> f64 {
        let i = self.0.partition_point(|(s, _)| *s <= t);
        match (i.checked_sub(1).map(|j| self.0[j]), self.0.get(i)) {
            (Some((t0, v0)), Some(&(t1, v1))) => {
                let span = (t1 - t0).as_secs_f64();
                v0 + (v1 - v0) * ((t - t0).as_secs_f64() / span.max(1e-9))
            }
            (Some((_, v)), None) | (None, Some(&(_, v))) => v,
            (None, None) => 0.0,
        }
    }

    /// Share of CPU stolen during `[a, b]` (0 to the CPU count).
    fn rate(&self, a: Instant, b: Instant) -> f64 {
        let secs = b.saturating_duration_since(a).as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.at(b) - self.at(a)) / secs
        }
    }

    /// The items whose interval saw no more steal than the
    /// [`CALM_SHARE`] quantile of all of them.
    pub fn calmest<T: Copy>(&self, items: &[(T, Instant, Instant)]) -> Vec<T> {
        let rates: Vec<f64> = items.iter().map(|&(_, a, b)| self.rate(a, b)).collect();
        let cut = quantile(&rates, CALM_SHARE);
        items
            .iter()
            .zip(&rates)
            .filter(|(_, &r)| r <= cut)
            .map(|(&(x, _, _), _)| x)
            .collect()
    }
}
