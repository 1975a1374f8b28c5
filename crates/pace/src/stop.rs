//! Anytime-search stop plumbing: deadline instants, cooperative
//! cancellation flags, and the [`Completion`] marker every search
//! result carries.
//!
//! A [`StopSignal`] is threaded through the sweep engine and polled at
//! bounded intervals; when it trips, each worker stops cleanly after
//! the point (or DP row) it is on, the deterministic reduce runs over
//! whatever was visited, and the result reports how it ended. A signal
//! that never trips leaves every engine path bit-identical to the
//! pre-anytime engine — the `Complete` exactness contract.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a sweep worker stopped before exhausting its points.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The deadline instant passed.
    Deadline,
    /// The external cancel flag was raised.
    Cancelled,
}

/// How a search run ended — carried in
/// [`SearchStats`](crate::SearchStats) so every result (and the
/// Table-1 CSV) can tell an exact answer from a best-so-far one.
///
/// `Complete` results are exact: bit-identical to the pre-anytime
/// engine, pinned by the equivalence suites. The truncated variants
/// promise only the *anytime* contract — a feasible, DP-exact
/// best-so-far incumbent (or partial frontier) over the points visited
/// before the stop, with the unvisited remainder counted in
/// [`SearchStats::unvisited`](crate::SearchStats::unvisited).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Completion {
    /// Every point of the (possibly limit-truncated) candidate window
    /// was visited; the result is exact.
    #[default]
    Complete,
    /// A deadline expired mid-sweep; the result is best-so-far.
    DeadlineTruncated,
    /// The external cancel flag stopped the sweep; the result is
    /// best-so-far.
    Cancelled,
}

impl Completion {
    /// Whether the run visited its whole candidate window (the exact
    /// path).
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// Canonical lower-case token, as the Table-1 CSV and the serve
    /// wire emit it.
    pub fn as_str(&self) -> &'static str {
        match self {
            Completion::Complete => "complete",
            Completion::DeadlineTruncated => "deadline",
            Completion::Cancelled => "cancelled",
        }
    }
}

impl From<StopReason> for Completion {
    fn from(reason: StopReason) -> Self {
        match reason {
            StopReason::Deadline => Completion::DeadlineTruncated,
            StopReason::Cancelled => Completion::Cancelled,
        }
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How many *cheap* loop iterations a sweep worker runs between
/// [`StopSignal::check`] probes — the check-interval tradeoff.
///
/// The branch-and-bound subtree-skip loop retires a round in ~100 ns,
/// so probing the clock every round would make the stop plumbing a
/// measurable fraction of the pruning loop itself; probing every
/// [`STOP_CHECK_INTERVAL`] rounds keeps the overhead one counter
/// increment per round while bounding the deadline overrun from this
/// loop to `interval × round cost` — single-digit microseconds.
/// Expensive steps need no counter: every surviving candidate checks
/// the signal once before its DP, and the DP itself re-checks between
/// rows ([`DpScratch::evaluate`](crate::DpScratch)), so the
/// worst-case overrun is one DP row plus one check interval. Shrinking
/// the interval below the cost of a clock read buys nothing; growing
/// it past ~10⁴ lets a prune-heavy sweep overshoot a millisecond-scale
/// deadline.
pub const STOP_CHECK_INTERVAL: u32 = 64;

/// A deadline and/or an external cancel flag, polled cooperatively by
/// sweep workers. The default (and [`StopSignal::never`]) never trips,
/// and its checks reduce to two branch tests — the `Complete` path
/// pays effectively nothing.
#[derive(Clone, Debug, Default)]
pub struct StopSignal {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl StopSignal {
    /// A signal that never trips — the exact-search default.
    pub fn never() -> Self {
        StopSignal::default()
    }

    /// Trips once `budget` has elapsed from now.
    pub fn after(budget: Duration) -> Self {
        StopSignal {
            deadline: Some(Instant::now() + budget),
            cancel: None,
        }
    }

    /// Trips once `deadline` passes.
    pub fn at(deadline: Instant) -> Self {
        StopSignal {
            deadline: Some(deadline),
            cancel: None,
        }
    }

    /// Adds an external cancel flag: the signal trips as soon as the
    /// flag reads `true` (checked before the deadline, so a cancelled
    /// *and* expired search reports [`StopReason::Cancelled`]).
    #[must_use]
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// This signal tightened by an optional millisecond budget from
    /// now — the earliest deadline wins. `None` leaves the signal
    /// unchanged; this is how [`crate::SearchOptions::deadline_ms`]
    /// folds into whatever signal the caller already threads.
    #[must_use]
    pub fn with_deadline_ms(&self, deadline_ms: Option<u64>) -> Self {
        let mut merged = self.clone();
        if let Some(ms) = deadline_ms {
            let candidate = Instant::now() + Duration::from_millis(ms);
            merged.deadline = Some(match merged.deadline {
                Some(existing) => existing.min(candidate),
                None => candidate,
            });
        }
        merged
    }

    /// Whether this signal can never trip (no deadline, no flag).
    pub fn is_never(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Polls the signal: `Some(reason)` once it has tripped, `None`
    /// while the search may keep going. Monotone — once tripped it
    /// stays tripped (deadlines never un-expire and the cancel flag is
    /// never cleared by the engine).
    pub fn check(&self) -> Option<StopReason> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_trips_and_is_cheap_to_ask() {
        let s = StopSignal::never();
        assert!(s.is_never());
        assert_eq!(s.check(), None);
        assert_eq!(StopSignal::default().check(), None);
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let s = StopSignal::at(Instant::now() - Duration::from_millis(1));
        assert!(!s.is_never());
        assert_eq!(s.check(), Some(StopReason::Deadline));
        // Monotone: still tripped on a re-poll.
        assert_eq!(s.check(), Some(StopReason::Deadline));
        let future = StopSignal::after(Duration::from_secs(3600));
        assert_eq!(future.check(), None);
    }

    #[test]
    fn cancel_flag_wins_over_an_expired_deadline() {
        let flag = Arc::new(AtomicBool::new(false));
        let s = StopSignal::at(Instant::now() - Duration::from_millis(1))
            .with_cancel(Arc::clone(&flag));
        assert_eq!(s.check(), Some(StopReason::Deadline));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(s.check(), Some(StopReason::Cancelled));
    }

    #[test]
    fn deadline_ms_merge_keeps_the_earliest() {
        let s = StopSignal::never().with_deadline_ms(None);
        assert!(s.is_never(), "None leaves the signal untouched");
        let s = StopSignal::never().with_deadline_ms(Some(0));
        assert_eq!(s.check(), Some(StopReason::Deadline), "0 ms is due now");
        // A one-hour signal tightened to 0 ms trips; tightened by a
        // *later* deadline it keeps the earlier one and stays quiet.
        let hour = StopSignal::after(Duration::from_secs(3600));
        assert_eq!(
            hour.with_deadline_ms(Some(0)).check(),
            Some(StopReason::Deadline)
        );
        let s = StopSignal::at(Instant::now() + Duration::from_secs(3600))
            .with_deadline_ms(Some(7_200_000));
        assert_eq!(s.check(), None);
    }

    #[test]
    fn completion_tokens_are_pinned() {
        assert_eq!(Completion::default(), Completion::Complete);
        assert!(Completion::Complete.is_complete());
        assert!(!Completion::DeadlineTruncated.is_complete());
        assert_eq!(Completion::Complete.to_string(), "complete");
        assert_eq!(Completion::DeadlineTruncated.to_string(), "deadline");
        assert_eq!(Completion::Cancelled.to_string(), "cancelled");
    }
}
