//! Deadline budgets and cooperative cancellation.
//!
//! An online engine must not burn CPU on a query the client has given up
//! on. Every query entering the serving tier is stamped with an *absolute
//! deadline* (microseconds on a process-wide monotonic clock); the
//! deadline rides in every [`crate::Envelope`] alongside the trace id, is
//! tightened by the modeled transfer time of the [`crate::CostModel`] as
//! it crosses machines, and is re-installed on whichever worker thread
//! runs the remote handler — the exact mechanism `TraceGuard` uses for
//! trace propagation. Handlers and long scan loops poll
//! [`deadline_expired`] and return partial results instead of completing
//! doomed work.
//!
//! Cancellation is the client-initiated twin: a [`CancelToken`] is a
//! shared flag the serving runtime hands to a query, checked at the same
//! hop and scan boundaries as the deadline.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sentinel for "no deadline": a budget that never expires.
pub const NO_DEADLINE: u64 = u64::MAX;

/// Microseconds since the process-wide monotonic epoch. All deadlines are
/// absolute values on this clock, so they can cross (simulated) machine
/// boundaries without clock-skew adjustment.
pub fn deadline_now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

thread_local! {
    static CURRENT_DEADLINE: Cell<u64> = const { Cell::new(NO_DEADLINE) };
}

/// The deadline installed on this thread ([`NO_DEADLINE`] when none).
pub fn current_deadline() -> u64 {
    CURRENT_DEADLINE.with(|d| d.get())
}

/// Remaining budget of the thread's deadline, in microseconds.
/// `u64::MAX` when no deadline is set; `0` when already expired.
pub fn remaining_us() -> u64 {
    let d = current_deadline();
    if d == NO_DEADLINE {
        u64::MAX
    } else {
        d.saturating_sub(deadline_now_us())
    }
}

/// True when the thread's deadline has passed.
pub fn deadline_expired() -> bool {
    let d = current_deadline();
    d != NO_DEADLINE && deadline_now_us() >= d
}

/// RAII guard installing an absolute deadline on the current thread,
/// restoring the previous one on drop. Mirrors `trinity_obs::TraceGuard`:
/// the fabric enters it around handler dispatch so a budget follows a
/// query through nested `call`/`send` fan-out.
#[must_use = "the deadline is uninstalled when the guard drops"]
#[derive(Debug)]
pub struct DeadlineGuard {
    prev: u64,
}

impl DeadlineGuard {
    /// Install `abs_us` (absolute, on the [`deadline_now_us`] clock) as
    /// the thread's deadline.
    pub fn enter(abs_us: u64) -> Self {
        let prev = CURRENT_DEADLINE.with(|d| d.replace(abs_us));
        DeadlineGuard { prev }
    }

    /// Install a deadline `budget` from now (saturating).
    pub fn enter_for(budget: std::time::Duration) -> Self {
        Self::enter(deadline_now_us().saturating_add(budget.as_micros() as u64))
    }
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        CURRENT_DEADLINE.with(|d| d.set(self.prev));
    }
}

/// Cooperative cancellation flag shared between a query's submitter and
/// the machines executing it. Cloning is cheap (one `Arc`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn guard_installs_and_restores() {
        assert_eq!(current_deadline(), NO_DEADLINE);
        assert!(!deadline_expired());
        {
            let _g = DeadlineGuard::enter(deadline_now_us() + 1_000_000);
            assert_ne!(current_deadline(), NO_DEADLINE);
            assert!(!deadline_expired());
            assert!(remaining_us() <= 1_000_000);
            {
                let _inner = DeadlineGuard::enter(0); // the clock's epoch: always past
                assert!(deadline_expired());
                assert_eq!(remaining_us(), 0);
            }
            assert!(!deadline_expired(), "inner guard restored outer deadline");
        }
        assert_eq!(current_deadline(), NO_DEADLINE);
    }

    #[test]
    fn enter_for_expires_after_budget() {
        let _g = DeadlineGuard::enter_for(Duration::from_millis(5));
        assert!(!deadline_expired());
        std::thread::sleep(Duration::from_millis(10));
        assert!(deadline_expired());
    }

    #[test]
    fn cancel_token_is_shared() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
    }
}
