//! Batched proactive-obfuscation rotation for the SMR group (paper §2.3).
//!
//! Applying proactive obfuscation to SMR "without stopping the SMR system
//! itself" requires that "at specific instances, a batch of at most `f`
//! replicas (logically) exit the SMR system to be re-booted and
//! re-randomized, and re-join the system after having restored the service
//! state and before the next batch is to exit. There are thus at least
//! ⌈n/f⌉ state restorations per unit time-step. Each one succeeds because
//! n − f > 2f and the re-joining replicas have at least (f+1) correct
//! working replicas to supply the correct service state."
//!
//! [`RotationSchedule`] plans those batches; [`RotationCoordinator`] walks
//! a replica through the exit → reboot/re-randomize → snapshot-collect →
//! rejoin cycle using the [`crate::state_transfer`] `f+1`-matching rule.
//! The quorum-availability invariant (never more than `f` replicas out at
//! once) is enforced by construction and property-tested.

use crate::error::ReplicationError;

/// A cyclic schedule of re-randomization batches over `n` replicas.
///
/// # Example
///
/// ```
/// use fortress_replication::rotation::RotationSchedule;
///
/// // The paper's S0: n = 4, f = 1 — four batches of one replica each.
/// let schedule = RotationSchedule::new(4, 1)?;
/// assert_eq!(schedule.batches_per_cycle(), 4);
/// assert_eq!(schedule.batch(0), &[0]);
/// assert_eq!(schedule.batch(5), &[1], "schedules cycle");
/// # Ok::<(), fortress_replication::ReplicationError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RotationSchedule {
    n: usize,
    f: usize,
    batches: Vec<Vec<usize>>,
}

impl RotationSchedule {
    /// Plans batches of at most `f` replicas covering all `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ReplicationError::BadConfig`] unless `n >= 3f + 1` and
    /// `f >= 1` (with fewer replicas, pulling a batch would break the
    /// `2f+1` quorum the remaining replicas must still form).
    pub fn new(n: usize, f: usize) -> Result<RotationSchedule, ReplicationError> {
        if f == 0 {
            return Err(ReplicationError::BadConfig {
                reason: "rotation requires f >= 1".into(),
            });
        }
        if n < 3 * f + 1 {
            return Err(ReplicationError::BadConfig {
                reason: format!("n = {n} < 3f + 1 = {}", 3 * f + 1),
            });
        }
        let batches = (0..n)
            .collect::<Vec<usize>>()
            .chunks(f)
            .map(|c| c.to_vec())
            .collect();
        Ok(RotationSchedule { n, f, batches })
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tolerance (= maximum batch size).
    pub fn f(&self) -> usize {
        self.f
    }

    /// Batches per full cycle: `⌈n/f⌉`.
    pub fn batches_per_cycle(&self) -> usize {
        self.batches.len()
    }

    /// The replica indices rebooted in rotation slot `slot` (cyclic).
    pub fn batch(&self, slot: u64) -> &[usize] {
        &self.batches[(slot as usize) % self.batches.len()]
    }

    /// Replicas that remain live during `slot` — always at least `2f+1`.
    pub fn live_during(&self, slot: u64) -> Vec<usize> {
        let out = self.batch(slot);
        (0..self.n).filter(|i| !out.contains(i)).collect()
    }
}

/// Rejoin progress of one rebooted replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejoinPhase {
    /// Exited, rebooting with a fresh randomized executable.
    Rebooting,
    /// Collecting snapshot offers until `f+1` agree.
    CollectingState,
    /// Back in the group.
    Rejoined,
}

/// Drives one replica's exit → reboot → restore → rejoin cycle.
#[derive(Debug, Clone)]
pub struct RotationCoordinator {
    replica: usize,
    phase: RejoinPhase,
    collector: crate::state_transfer::RejoinCollector,
}

impl RotationCoordinator {
    /// Starts the cycle for `replica` in a group tolerating `f` faults.
    pub fn begin(replica: usize, f: usize) -> RotationCoordinator {
        RotationCoordinator {
            replica,
            phase: RejoinPhase::Rebooting,
            collector: crate::state_transfer::RejoinCollector::new(f),
        }
    }

    /// The replica being cycled.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Current phase.
    pub fn phase(&self) -> RejoinPhase {
        self.phase
    }

    /// Marks the reboot (and re-randomization) complete; the replica now
    /// solicits snapshots from its peers.
    pub fn reboot_complete(&mut self) {
        if self.phase == RejoinPhase::Rebooting {
            self.phase = RejoinPhase::CollectingState;
        }
    }

    /// Feeds a snapshot offer; returns the accepted offer once `f+1`
    /// matching offers have arrived, at which point the replica rejoins.
    pub fn offer(
        &mut self,
        offer: crate::state_transfer::SnapshotOffer,
    ) -> Option<crate::state_transfer::SnapshotOffer> {
        if self.phase != RejoinPhase::CollectingState {
            return None;
        }
        let accepted = self.collector.add(offer);
        if accepted.is_some() {
            self.phase = RejoinPhase::Rejoined;
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SmrMsg;
    use crate::service::{KvStore, Service};
    use crate::smr::{SmrConfig, SmrInput, SmrReplica};
    use crate::state_transfer::SnapshotOffer;
    use fortress_crypto::sig::Signer;
    use fortress_crypto::KeyAuthority;

    #[test]
    fn schedule_covers_all_replicas_each_cycle() {
        for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let s = RotationSchedule::new(n, f).unwrap();
            let mut covered = vec![false; n];
            for slot in 0..s.batches_per_cycle() as u64 {
                for &r in s.batch(slot) {
                    covered[r] = true;
                }
                assert!(s.batch(slot).len() <= f, "batch exceeds f");
            }
            assert!(covered.iter().all(|c| *c), "n={n} f={f}: {covered:?}");
        }
    }

    #[test]
    fn quorum_never_broken_mid_rotation() {
        for (n, f) in [(4usize, 1usize), (7, 2), (13, 4)] {
            let s = RotationSchedule::new(n, f).unwrap();
            for slot in 0..(2 * s.batches_per_cycle()) as u64 {
                let live = s.live_during(slot);
                assert!(
                    live.len() > 2 * f,
                    "n={n} f={f} slot={slot}: only {} live",
                    live.len()
                );
            }
        }
    }

    #[test]
    fn schedule_validation() {
        assert!(RotationSchedule::new(4, 0).is_err());
        assert!(RotationSchedule::new(3, 1).is_err());
        assert!(RotationSchedule::new(4, 1).is_ok());
        assert!(RotationSchedule::new(6, 2).is_err(), "needs 7 for f=2");
    }

    #[test]
    fn coordinator_walks_the_phases() {
        let snap = b"state".to_vec();
        let digest = fortress_crypto::sha256::Sha256::digest(&snap);
        let mut c = RotationCoordinator::begin(3, 1);
        assert_eq!(c.phase(), RejoinPhase::Rebooting);
        // Offers before reboot completion are ignored.
        assert!(c
            .offer(SnapshotOffer {
                from: 0,
                seq: 5,
                digest,
                snapshot: snap.clone()
            })
            .is_none());
        c.reboot_complete();
        assert_eq!(c.phase(), RejoinPhase::CollectingState);
        assert!(c
            .offer(SnapshotOffer {
                from: 0,
                seq: 5,
                digest,
                snapshot: snap.clone()
            })
            .is_none());
        let accepted = c
            .offer(SnapshotOffer {
                from: 1,
                seq: 5,
                digest,
                snapshot: snap.clone(),
            })
            .expect("two matching offers with f = 1");
        assert_eq!(accepted.seq, 5);
        assert_eq!(c.phase(), RejoinPhase::Rejoined);
        assert_eq!(c.replica(), 3);
    }

    /// Full rotation over a live SMR group: each replica in turn exits,
    /// "re-randomizes", restores state via f+1 matching snapshots from the
    /// survivors, and rejoins with the correct digest.
    #[test]
    fn full_rotation_cycle_preserves_state() {
        let authority = KeyAuthority::with_seed(3);
        let cfg = SmrConfig::default();
        let mut replicas: Vec<SmrReplica<KvStore>> = (0..4)
            .map(|i| {
                let signer = Signer::register(&format!("r{i}"), &authority);
                SmrReplica::new(cfg, i, KvStore::new(), signer).unwrap()
            })
            .collect();

        // Commit some state through the ordinary protocol path: drive the
        // leader and relay messages by hand.
        let outs = replicas[0].on_input(SmrInput::Request {
            seq: 1,
            client: "c".into(),
            op: b"PUT rotated yes".to_vec(),
        });
        // Tiny relay: breadth-first until quiet.
        let mut queue: Vec<(usize, crate::smr::SmrOutput)> =
            outs.into_iter().map(|o| (0usize, o)).collect();
        while let Some((from, out)) = queue.pop() {
            if let crate::smr::SmrOutput::Broadcast(msg) = out {
                for (i, replica) in replicas.iter_mut().enumerate() {
                    if i != from {
                        for o in replica.on_input(SmrInput::ReplicaMsg {
                            from,
                            msg: msg.clone(),
                        }) {
                            queue.push((i, o));
                        }
                    }
                }
            }
        }
        let reference = replicas[0].service().digest();
        assert!(replicas.iter().all(|r| r.service().digest() == reference));

        // Rotate every replica through a reboot.
        let schedule = RotationSchedule::new(4, 1).unwrap();
        for slot in 0..4u64 {
            let &rebooting = &schedule.batch(slot)[0];
            let mut coord = RotationCoordinator::begin(rebooting, 1);
            // The rebooted replica loses its state entirely.
            let signer = Signer::from_key(
                &format!("r{rebooting}"),
                authority.rekey(&format!("r{rebooting}")).unwrap(),
            );
            replicas[rebooting] = SmrReplica::new(cfg, rebooting, KvStore::new(), signer).unwrap();
            coord.reboot_complete();

            // Survivors answer the snapshot solicitation.
            let mut accepted = None;
            for &peer in &schedule.live_during(slot) {
                let SmrMsg::SnapshotOffer { seq, digest, snapshot } =
                    replicas[peer].snapshot_offer()
                else {
                    panic!("snapshot_offer returns SnapshotOffer");
                };
                if let Some(a) = coord.offer(SnapshotOffer {
                    from: peer,
                    seq,
                    digest,
                    snapshot,
                }) {
                    accepted = Some(a);
                    break;
                }
            }
            let a = accepted.expect("f+1 matching offers must exist");
            replicas[rebooting]
                .install_snapshot(a.seq, a.digest, &a.snapshot)
                .unwrap();
            assert_eq!(replicas[rebooting].service().digest(), reference);
        }
    }
}
