//! Hedged probes: a unit of search work (one index probe, one brute-scanned
//! file) runs once — or, under deadline pressure, on two racing lanes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rottnest_object_store::{
    is_cancelled, parallel::captured_lane_micros, push_deadline, CancelStore, ObjectStore,
    WorkerPool,
};

use crate::query::SearchStats;
use crate::rottnest::Rottnest;
use crate::Result;

/// What happened to one potentially hedged index probe.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HedgeOutcome {
    /// The probe ran on two lanes (the hedge trigger fired).
    pub hedged: bool,
    /// The backup lane's result was the one used.
    backup_won: bool,
    /// The losing lane was observed to stop at a cancellation point.
    loser_cancelled: bool,
}

impl HedgeOutcome {
    /// Folds this outcome into a search's stats counters.
    pub(crate) fn account(&self, stats: &mut SearchStats) {
        if self.hedged {
            stats.hedged_probes += 1;
            if self.backup_won {
                stats.hedge_wins += 1;
            }
            if self.loser_cancelled {
                stats.hedge_cancels += 1;
            }
        }
    }
}

impl Rottnest<'_> {
    /// Folds one observed probe duration into the EWMA (weight 1/4 for
    /// the new sample). Only unhedged probes feed it: a hedged probe's
    /// duration reflects two racing lanes, not typical cost.
    fn observe_probe_ms(&self, elapsed_ms: u64) {
        // Lock-free read-modify-write; a lost race just drops one sample,
        // which an EWMA tolerates by construction.
        let old = self.probe_ewma_ms.load(Ordering::Relaxed);
        let next = if old == 0 {
            elapsed_ms
        } else {
            (old * 3 + elapsed_ms) / 4
        };
        self.probe_ewma_ms.store(next, Ordering::Relaxed);
    }

    /// Whether a probe starting now should hedge: hedging is on, a
    /// deadline exists, and the remaining budget is below
    /// `ewma * hedge_threshold_pct / 100`.
    fn should_hedge(&self, deadline_ms: Option<u64>) -> bool {
        if !self.config().search.hedge {
            return false;
        }
        let Some(deadline_ms) = deadline_ms else {
            return false;
        };
        let remaining = deadline_ms.saturating_sub(self.store().now_ms());
        let ewma = self.probe_ewma_ms.load(Ordering::Relaxed).max(1);
        let pct = u64::from(self.config().search.hedge_threshold_pct);
        remaining < ewma.saturating_mul(pct) / 100
    }

    /// One fan-out unit of a search. Re-installs the caller's deadline for
    /// the retry layer (the unit may run on a pool worker) and polls it, so
    /// an over-budget fan-out aborts per unit instead of finishing
    /// everything it already queued. Then runs `probe` once — or, under
    /// deadline pressure with hedging enabled, twice concurrently on
    /// independent cancellation lanes, returning whichever lane finishes
    /// first and cancelling the loser at its next store request.
    ///
    /// Both lanes evaluate the identical pure function over the same
    /// shared caches and single-flight tables (the [`CancelStore`]
    /// wrapper preserves `store_id`), so the *value* returned is the same
    /// whichever lane wins — hedging changes latency and the hedge
    /// counters, never matches. A lane that lost and was cancelled
    /// surfaces a typed [`rottnest_object_store::CANCELLED`] error, which
    /// is discarded in favor of the winner's result.
    pub(crate) fn hedged_probe<R: Send>(
        &self,
        deadline_ms: Option<u64>,
        probe: &(dyn Fn(&dyn ObjectStore) -> Result<R> + Sync),
    ) -> (Result<R>, HedgeOutcome) {
        let _deadline = push_deadline(deadline_ms);
        if let Err(e) = self.check_deadline(deadline_ms) {
            return (Err(e), HedgeOutcome::default());
        }
        if !self.should_hedge(deadline_ms) {
            // Simulated elapsed time for the EWMA: inside a captured
            // fan-out item the clock defers to the item's lane, so the
            // true duration is the clock delta plus the lane delta.
            let started_ms = self.store().now_ms();
            let started_lane = captured_lane_micros().unwrap_or(0);
            let out = probe(self.store());
            if out.is_ok() {
                let lane_ms = captured_lane_micros()
                    .unwrap_or(0)
                    .saturating_sub(started_lane)
                    / 1000;
                let clock_ms = self.store().now_ms().saturating_sub(started_ms);
                self.observe_probe_ms(clock_ms + lane_ms);
            }
            return (out, HedgeOutcome::default());
        }

        let first = AtomicU64::new(u64::MAX);
        let cancels = [AtomicBool::new(false), AtomicBool::new(false)];
        let run_lane = |lane: usize| -> Result<R> {
            // The backup lane may run on a pool worker: re-install the
            // caller's deadline for the retry layer on that thread.
            let _deadline = push_deadline(deadline_ms);
            let lane_store = CancelStore::new(self.store(), &cancels[lane]);
            let out = probe(&lane_store);
            if first
                .compare_exchange(u64::MAX, lane as u64, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                cancels[1 - lane].store(true, Ordering::Release);
            }
            out
        };
        // The backup lane is a single stealable unit offered to the shared
        // pool — no thread is spawned for it. If no worker claims it by the
        // time the primary finishes, `join` revokes it (the backup never
        // ran: a busy pool degrades hedging to the unhedged path, it never
        // queues latent work behind the query). If a worker did claim it,
        // `join` waits for it — the losing lane dies at its next store
        // request via the cancellation token, exactly as before.
        let offer = WorkerPool::global().offer(|| run_lane(1));
        let primary = run_lane(0);
        let backup = offer.join();

        let backup_won = match (&primary, &backup) {
            (Ok(_), Some(Ok(_))) => first.load(Ordering::Acquire) == 1,
            (Err(_), Some(Ok(_))) => true,
            _ => false,
        };
        let (winner, loser) = match backup {
            Some(backup) if backup_won => (backup, Some(primary)),
            Some(backup) => (primary, Some(backup)),
            None => (primary, None),
        };
        // The typed cancellation a `CancelStore` raises is the expected way
        // a losing lane dies, not a real fault.
        let loser_cancelled =
            matches!(&loser, Some(Err(e)) if e.store_fault().is_some_and(is_cancelled));
        (
            winner,
            HedgeOutcome {
                hedged: true,
                backup_won,
                loser_cancelled,
            },
        )
    }
}
