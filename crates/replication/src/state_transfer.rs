//! State transfer for re-randomized replicas rejoining the group.
//!
//! Proactive obfuscation "requires … at least ⌈n/f⌉ state restorations per
//! unit time-step. Each one succeeds because n − f > 2f and the re-joining
//! replicas have at least (f+1) correct working replicas to supply the
//! correct service state" (paper §2.3, after Roeder & Schneider). The
//! acceptance rule is [`RejoinCollector`]'s: a snapshot is accepted once
//! **`f + 1` offers agree on the same `(seq, digest)`** — at most `f`
//! faulty replicas can lie, so an `f+1` match contains at least one
//! correct replica's state. No replica runs that rule yet: an
//! `SmrReplica` drops every `SnapshotOffer` it receives, and a rejoiner's
//! catch-up is priced outside the replica, by the tier's
//! [`TransferScheduler`] (ROADMAP.md item M).
//!
//! Transfers are not free. A rejoiner pays [`TransferScheduler`] work
//! proportional to its *log divergence* (how far the group's execution
//! frontier ran past its own while it was down), and all concurrent
//! rejoiners share one bounded bandwidth budget — which is exactly what
//! makes recovery *storms* (correlated bring-ups) slower than staggered
//! recoveries of the same replicas.

use std::collections::VecDeque;

use fortress_crypto::sha256::Digest;

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
    completed: u64,
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
            completed: 0,
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
                self.completed += 1;
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

    /// Transfers completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Clears the queue and every counter (the trial-arena reset path).
    /// The bandwidth is configuration, not state: it stays as last set.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.units_paid = 0;
        self.completed = 0;
        self.peak_queue = 0;
    }
}

/// One replica's snapshot offer, as received by a rejoiner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotOffer {
    /// Offering replica's index.
    pub from: usize,
    /// Slot the snapshot reflects.
    pub seq: u64,
    /// Digest of the offered state.
    pub digest: Digest,
    /// The serialized state.
    pub snapshot: Vec<u8>,
}

/// Collects offers until `f + 1` of them agree.
///
/// # Example
///
/// ```
/// use fortress_replication::state_transfer::{RejoinCollector, SnapshotOffer};
/// use fortress_crypto::sha256::Sha256;
///
/// let snap = b"state".to_vec();
/// let digest = Sha256::digest(&snap);
/// let mut collector = RejoinCollector::new(1); // f = 1 → need 2 matching
/// assert!(collector
///     .add(SnapshotOffer { from: 0, seq: 5, digest, snapshot: snap.clone() })
///     .is_none());
/// let accepted = collector
///     .add(SnapshotOffer { from: 2, seq: 5, digest, snapshot: snap })
///     .expect("two matching offers");
/// assert_eq!(accepted.seq, 5);
/// ```
#[derive(Debug, Clone)]
pub struct RejoinCollector {
    f: usize,
    offers: Vec<SnapshotOffer>,
}

impl RejoinCollector {
    /// A collector for a group tolerating `f` faults.
    pub fn new(f: usize) -> RejoinCollector {
        RejoinCollector {
            f,
            offers: Vec::new(),
        }
    }

    /// Offers received so far.
    pub fn len(&self) -> usize {
        self.offers.len()
    }

    /// Whether no offers have been received.
    pub fn is_empty(&self) -> bool {
        self.offers.is_empty()
    }

    /// Adds an offer; returns the accepted offer once `f + 1` offers from
    /// distinct replicas agree on `(seq, digest)`. Later duplicates from
    /// the same replica are ignored.
    pub fn add(&mut self, offer: SnapshotOffer) -> Option<SnapshotOffer> {
        if self.offers.iter().any(|o| o.from == offer.from) {
            return None;
        }
        self.offers.push(offer.clone());
        let matching = self
            .offers
            .iter()
            .filter(|o| o.seq == offer.seq && o.digest == offer.digest)
            .count();
        if matching > self.f {
            Some(offer)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_crypto::sha256::Sha256;

    fn offer(from: usize, seq: u64, payload: &[u8]) -> SnapshotOffer {
        SnapshotOffer {
            from,
            seq,
            digest: Sha256::digest(payload),
            snapshot: payload.to_vec(),
        }
    }

    #[test]
    fn accepts_at_f_plus_one_matching() {
        let mut c = RejoinCollector::new(1);
        assert!(c.add(offer(0, 3, b"s")).is_none());
        assert!(c.add(offer(1, 3, b"s")).is_some());
    }

    #[test]
    fn mismatched_digests_do_not_count_together() {
        let mut c = RejoinCollector::new(1);
        assert!(c.add(offer(0, 3, b"honest")).is_none());
        // A lying replica offers different bytes for the same seq.
        assert!(c.add(offer(1, 3, b"forged")).is_none());
        // A second honest replica completes the match.
        let accepted = c.add(offer(2, 3, b"honest")).unwrap();
        assert_eq!(accepted.snapshot, b"honest");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn duplicate_senders_ignored() {
        let mut c = RejoinCollector::new(1);
        assert!(c.add(offer(0, 3, b"s")).is_none());
        assert!(c.add(offer(0, 3, b"s")).is_none(), "same sender twice");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn different_seqs_do_not_match() {
        let mut c = RejoinCollector::new(1);
        assert!(c.add(offer(0, 3, b"s")).is_none());
        assert!(c.add(offer(1, 4, b"s")).is_none());
    }

    #[test]
    fn f_zero_accepts_first_offer() {
        let mut c = RejoinCollector::new(0);
        assert!(c.add(offer(0, 1, b"s")).is_some());
        assert!(!c.is_empty());
    }

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
