//! State transfer for re-randomized replicas rejoining the group.
//!
//! Proactive obfuscation "requires … at least ⌈n/f⌉ state restorations per
//! unit time-step. Each one succeeds because n − f > 2f and the re-joining
//! replicas have at least (f+1) correct working replicas to supply the
//! correct service state" (paper §2.3, after Roeder & Schneider). The
//! acceptance rule is that a snapshot is accepted once **`f + 1` offers
//! agree on the same `(seq, digest)`** — at most `f` faulty replicas can
//! lie, so an `f+1` match contains at least one correct replica's state.
//! That rule belongs where the offers arrive, in `SmrReplica`'s
//! `SnapshotOffer` arm, and no replica runs it yet: an `SmrReplica` drops
//! every offer it receives, and a rejoiner's catch-up is priced outside the
//! replica, by the tier's [`TransferScheduler`] (ROADMAP.md item M).
//!
//! Transfers are not free. A rejoiner pays [`TransferScheduler`] work
//! proportional to its *log divergence* (how far the group's execution
//! frontier ran past its own while it was down), and all concurrent
//! rejoiners share one bounded bandwidth budget — which is exactly what
//! makes recovery *storms* (correlated bring-ups) slower than staggered
//! recoveries of the same replicas.

use std::collections::VecDeque;

/// One rejoiner's pending state transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TransferJob {
    id: usize,
    remaining: u64,
}

/// Divergence-priced state transfer under a shared bandwidth budget.
///
/// Each enqueued rejoiner owes `max(1, divergence)` transfer units (the
/// floor is the cost of installing even an up-to-date snapshot). Every
/// [`TransferScheduler::step`] spends up to `bandwidth` units in strict
/// FIFO order — head-of-line first — so correlated bring-ups queue behind
/// each other while a staggered schedule sails through. All counters are
/// RNG-free and deterministic.
///
/// # Example
///
/// ```
/// use fortress_replication::state_transfer::TransferScheduler;
///
/// let mut xfer = TransferScheduler::new(2);
/// xfer.enqueue(3, 5); // replica 3 diverged 5 slots → owes 5 units
/// assert!(xfer.step().is_empty()); // 2 units paid, 3 still owed
/// assert!(xfer.step().is_empty());
/// assert_eq!(xfer.step(), vec![3]); // done on the third step
/// assert_eq!(xfer.units_paid(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct TransferScheduler {
    bandwidth: u64,
    queue: VecDeque<TransferJob>,
    units_paid: u64,
    peak_queue: usize,
}

impl TransferScheduler {
    /// A scheduler spending up to `bandwidth` transfer units per step
    /// (clamped to at least 1).
    pub fn new(bandwidth: u64) -> TransferScheduler {
        TransferScheduler {
            bandwidth: bandwidth.max(1),
            queue: VecDeque::new(),
            units_paid: 0,
            peak_queue: 0,
        }
    }

    /// Changes the per-step budget (clamped to at least 1) for the steps
    /// still to come; queued transfers and the counters are kept.
    pub fn set_bandwidth(&mut self, bandwidth: u64) {
        self.bandwidth = bandwidth.max(1);
    }

    /// Enqueues rejoiner `id` owing `max(1, divergence)` units. A rejoiner
    /// already queued is left as-is (its divergence was priced at enqueue).
    pub fn enqueue(&mut self, id: usize, divergence: u64) {
        if self.queue.iter().any(|j| j.id == id) {
            return;
        }
        self.queue.push_back(TransferJob {
            id,
            remaining: divergence.max(1),
        });
        self.peak_queue = self.peak_queue.max(self.queue.len());
    }

    /// Spends one step's bandwidth; returns the rejoiners whose transfers
    /// completed this step, in FIFO order.
    pub fn step(&mut self) -> Vec<usize> {
        let mut budget = self.bandwidth;
        let mut done = Vec::new();
        while budget > 0 {
            let Some(job) = self.queue.front_mut() else { break };
            let spend = budget.min(job.remaining);
            job.remaining -= spend;
            budget -= spend;
            self.units_paid += spend;
            if job.remaining == 0 {
                done.push(job.id);
                self.queue.pop_front();
            }
        }
        done
    }

    /// Whether rejoiner `id` still has an unfinished transfer queued.
    #[cfg(test)]
    fn is_queued(&self, id: usize) -> bool {
        self.queue.iter().any(|j| j.id == id)
    }

    /// Rejoiners currently queued (in-flight transfer included).
    #[cfg(test)]
    fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Highest queue depth ever observed — the storm congestion signal.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Total transfer units actually spent.
    pub fn units_paid(&self) -> u64 {
        self.units_paid
    }

    /// Clears the queue and every counter (the trial-arena reset path).
    /// The bandwidth is configuration, not state: it stays as last set.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.units_paid = 0;
        self.peak_queue = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_scales_with_divergence() {
        let mut near = TransferScheduler::new(1);
        near.enqueue(0, 2);
        let mut far = TransferScheduler::new(1);
        far.enqueue(0, 10);
        let steps_until = |s: &mut TransferScheduler| {
            let mut n = 0;
            while s.queue_depth() > 0 {
                s.step();
                n += 1;
            }
            n
        };
        assert_eq!(steps_until(&mut near), 2);
        assert_eq!(steps_until(&mut far), 10);
    }

    #[test]
    fn zero_divergence_still_pays_one_unit() {
        let mut s = TransferScheduler::new(4);
        s.enqueue(1, 0);
        assert_eq!(s.step(), vec![1]);
        assert_eq!(s.units_paid(), 1);
    }

    #[test]
    fn storm_queues_behind_shared_bandwidth() {
        // Three rejoiners, 4 units each, bandwidth 2/step.
        // Storm: all at once → completions at steps 2, 4, 6.
        let mut storm = TransferScheduler::new(2);
        for id in 0..3 {
            storm.enqueue(id, 4);
        }
        assert_eq!(storm.peak_queue(), 3);
        let mut completions = Vec::new();
        for step in 1.. {
            for id in storm.step() {
                completions.push((id, step));
            }
            if storm.queue_depth() == 0 {
                break;
            }
        }
        assert_eq!(completions, vec![(0, 2), (1, 4), (2, 6)]);

        // Staggered: one every 2 steps → each finishes 2 steps after its
        // own enqueue; nobody waits behind anybody.
        let mut stag = TransferScheduler::new(2);
        let mut last_done = 0;
        for id in 0..3usize {
            stag.enqueue(id, 4);
            for step in 1..=2 {
                let done = stag.step();
                if !done.is_empty() {
                    assert_eq!(done, vec![id]);
                    last_done = id * 2 + step;
                }
            }
        }
        assert_eq!(last_done, 6);
        assert_eq!(stag.peak_queue(), 1, "staggered never queues");
        assert_eq!(stag.units_paid(), storm.units_paid(), "same total work");
    }

    #[test]
    fn duplicate_enqueue_is_ignored_and_reset_clears() {
        let mut s = TransferScheduler::new(1);
        s.enqueue(5, 3);
        s.enqueue(5, 99);
        assert_eq!(s.queue_depth(), 1);
        assert!(s.is_queued(5));
        s.step();
        // Re-budgeting mid-transfer keeps the job and what it already paid.
        s.set_bandwidth(0); // clamped to 1
        assert!(s.step().is_empty());
        s.set_bandwidth(8);
        assert_eq!(s.step(), vec![5]);
        assert_eq!(s.units_paid(), 3);
        s.enqueue(5, 3);
        s.reset();
        assert_eq!(s.queue_depth(), 0);
        assert_eq!(s.units_paid(), 0);
        assert_eq!(s.peak_queue(), 0);
        assert!(!s.is_queued(5));
    }
}
