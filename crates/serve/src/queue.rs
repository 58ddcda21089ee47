//! Per-policy enqueue: how a producer lane hands one shard's staged jobs
//! to that shard's ring under each [`BackpressurePolicy`], and the depth,
//! drop and shed accounting each policy owes.
//!
//! The ring ([`SpscRing`]) only moves jobs; this module decides what a
//! full ring means:
//!
//! * `Block` — retry batch pushes, yielding while the ring is full, until
//!   every job is in. Nothing is lost.
//! * `DropNewest` — one batch push; whatever the ring hands back is
//!   dropped and counted.
//! * `ShedOldest` — per-job evicting pushes; every job is admitted and each
//!   evicted (older) job is counted as shed.
//!
//! Under every policy a dead or closed ring fails the flush instead of
//! blocking: the unflushed jobs' depth reservations are rolled back and the
//! caller reports the shard, so the engine can harvest its worker.

use crate::config::BackpressurePolicy;
use crate::engine::BatchOutcome;
use crate::ring::SpscRing;
use crate::shard::{Job, ShardShared};
use sketchad_obs::{Counter, Event, RecorderHandle};
use std::collections::VecDeque;
use std::sync::atomic::Ordering::Relaxed;

/// The submit side of one shard, borrowed for one flush.
pub(crate) struct ShardQueue<'a> {
    pub shard: usize,
    pub ring: &'a SpscRing,
    pub shared: &'a ShardShared,
    pub obs: &'a RecorderHandle,
}

impl ShardQueue<'_> {
    /// Reserves depth for every job in `staged`, then flushes them under
    /// `policy`, leaving `staged` empty. `DropNewest` losses move from
    /// `outcome.accepted` to `outcome.dropped` (staging counted every job
    /// as accepted). `Err` means the worker thread is dead; reservations
    /// for the unflushed jobs are already rolled back.
    pub(crate) fn flush(
        &self,
        policy: BackpressurePolicy,
        staged: &mut VecDeque<Job>,
        outcome: &mut BatchOutcome,
    ) -> Result<(), ()> {
        // One depth reservation per flush, made before any push: the
        // worker may drain (and decrement) as soon as a job lands.
        self.shared.reserve_slots(staged.len());
        match policy {
            BackpressurePolicy::Block => self.flush_blocking(staged),
            BackpressurePolicy::DropNewest => self.flush_drop_newest(staged, outcome),
            BackpressurePolicy::ShedOldest => self.flush_shed_oldest(staged),
        }
    }

    fn flush_blocking(&self, staged: &mut VecDeque<Job>) -> Result<(), ()> {
        let mut blocked_recorded = false;
        loop {
            match self.ring.try_push_batch(staged) {
                Ok(_) if staged.is_empty() => return Ok(()),
                Ok(pushed) => {
                    if pushed == 0 {
                        if !blocked_recorded && self.obs.enabled() {
                            blocked_recorded = true;
                            self.obs.incr(Counter::QueueBlocked, 1);
                            self.obs.event(Event::QueueBlocked {
                                shard: self.shard,
                                seq: staged.front().expect("non-empty").seq,
                            });
                        }
                        std::thread::yield_now();
                    }
                }
                Err(()) => return self.abort(staged),
            }
        }
    }

    fn flush_drop_newest(
        &self,
        staged: &mut VecDeque<Job>,
        outcome: &mut BatchOutcome,
    ) -> Result<(), ()> {
        match self.ring.try_push_batch(staged) {
            Ok(_) => {
                for job in staged.drain(..) {
                    self.shared.release_slot();
                    self.shared.dropped.fetch_add(1, Relaxed);
                    if self.obs.enabled() {
                        self.obs.incr(Counter::QueueDropped, 1);
                        self.obs.event(Event::QueueDropped {
                            shard: self.shard,
                            seq: job.seq,
                        });
                    }
                    outcome.accepted -= 1;
                    outcome.dropped += 1;
                }
                Ok(())
            }
            Err(()) => self.abort(staged),
        }
    }

    fn flush_shed_oldest(&self, staged: &mut VecDeque<Job>) -> Result<(), ()> {
        while let Some(job) = staged.pop_front() {
            match self.ring.push_evicting(job) {
                Ok(None) => {}
                Ok(Some(evicted)) => {
                    // The new point took the evicted one's slot.
                    self.shared.release_slot();
                    self.shared.shed.fetch_add(1, Relaxed);
                    if self.obs.enabled() {
                        self.obs.incr(Counter::PointsShed, 1);
                        self.obs.event(Event::QueueShed {
                            shard: self.shard,
                            seq: evicted.seq,
                        });
                    }
                }
                Err(()) => {
                    // The in-hand job was already popped from `staged`;
                    // roll its reservation back separately.
                    self.shared.release_slot();
                    return self.abort(staged);
                }
            }
        }
        Ok(())
    }

    /// A dead worker thread surfaced mid-flush: roll back the depth
    /// reservations for everything unflushed and fail the flush.
    fn abort(&self, staged: &mut VecDeque<Job>) -> Result<(), ()> {
        for _ in 0..staged.len() {
            self.shared.release_slot();
        }
        staged.clear();
        Err(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn jobs(seqs: std::ops::Range<u64>) -> VecDeque<Job> {
        seqs.map(|seq| Job {
            seq,
            point: vec![seq as f64],
            enqueued: Instant::now(),
        })
        .collect()
    }

    /// Flushes `seqs` onto `ring` under `policy`, counting every job as
    /// accepted first, as staging does.
    fn flush(
        ring: &SpscRing,
        shared: &ShardShared,
        policy: BackpressurePolicy,
        seqs: std::ops::Range<u64>,
    ) -> (Result<(), ()>, BatchOutcome) {
        let obs = RecorderHandle::default();
        let queue = ShardQueue {
            shard: 0,
            ring,
            shared,
            obs: &obs,
        };
        let mut staged = jobs(seqs);
        let mut outcome = BatchOutcome {
            accepted: staged.len() as u64,
            ..BatchOutcome::default()
        };
        let result = queue.flush(policy, &mut staged, &mut outcome);
        assert!(staged.is_empty(), "a flush always empties the staged group");
        (result, outcome)
    }

    fn drain(ring: &SpscRing) -> Vec<u64> {
        let mut out = Vec::new();
        while ring.pop_batch_block(&mut out, 2) > 0 {}
        out.iter().map(|j| j.seq).collect()
    }

    #[test]
    fn fifo_order_and_close_drain() {
        let ring = SpscRing::new(4);
        let shared = ShardShared::default();
        let (result, outcome) = flush(&ring, &shared, BackpressurePolicy::Block, 0..3);
        assert!(result.is_ok());
        assert_eq!(outcome.accepted, 3);
        assert_eq!(shared.depth.load(Relaxed), 3);
        ring.close();
        assert_eq!(drain(&ring), vec![0, 1, 2], "closed and drained in order");
        // A closed ring refuses, and the refused job's reservation is rolled
        // back (the 3 above are still counted: only the worker decrements).
        let (result, _) = flush(&ring, &shared, BackpressurePolicy::Block, 3..4);
        assert!(result.is_err());
        assert_eq!(shared.depth.load(Relaxed), 3);
    }

    #[test]
    fn try_push_full_hands_job_back() {
        // The ring hands the job that does not fit back; `DropNewest`
        // counts it as dropped instead of losing it silently.
        let ring = SpscRing::new(2);
        let shared = ShardShared::default();
        let (result, outcome) = flush(&ring, &shared, BackpressurePolicy::DropNewest, 0..3);
        assert!(result.is_ok());
        assert_eq!((outcome.accepted, outcome.dropped), (2, 1));
        assert_eq!(shared.dropped.load(Relaxed), 1);
        assert_eq!(shared.depth.load(Relaxed), 2);
        ring.close();
        assert_eq!(
            drain(&ring),
            vec![0, 1],
            "the newest job is the one dropped"
        );
    }

    #[test]
    fn dead_queue_refuses_pushes_and_wakes_blocked_producer() {
        let ring = Arc::new(SpscRing::new(2));
        let shared = Arc::new(ShardShared::default());
        assert!(flush(&ring, &shared, BackpressurePolicy::Block, 0..2)
            .0
            .is_ok());
        let (ring2, shared2) = (Arc::clone(&ring), Arc::clone(&shared));
        let producer = std::thread::spawn(move || {
            flush(&ring2, &shared2, BackpressurePolicy::Block, 2..3)
                .0
                .is_err()
        });
        // Give the producer a moment to block on the full ring, then kill
        // the (never-started) consumer side.
        std::thread::sleep(Duration::from_millis(20));
        ring.mark_dead();
        assert!(
            producer.join().unwrap(),
            "blocked flush must fail, not hang"
        );
        assert_eq!(shared.depth.load(Relaxed), 2, "its reservation rolled back");
        for policy in [
            BackpressurePolicy::DropNewest,
            BackpressurePolicy::ShedOldest,
        ] {
            assert!(flush(&ring, &shared, policy, 3..5).0.is_err());
            assert_eq!(shared.depth.load(Relaxed), 2);
        }
        assert_eq!(shared.dropped.load(Relaxed), 0);
        assert_eq!(shared.shed.load(Relaxed), 0);
    }

    #[test]
    fn queued_jobs_survive_for_a_new_consumer() {
        // Jobs flushed before any consumer runs stay queued for whichever
        // thread starts draining; `ShedOldest` keeps the freshest of them.
        let ring = Arc::new(SpscRing::new(4));
        let shared = ShardShared::default();
        let (result, outcome) = flush(&ring, &shared, BackpressurePolicy::ShedOldest, 0..6);
        assert!(result.is_ok());
        assert_eq!(outcome.accepted, 6, "every submission is admitted");
        assert_eq!(shared.shed.load(Relaxed), 2);
        assert_eq!(shared.depth.load(Relaxed), 4);
        ring.close();
        let ring2 = Arc::clone(&ring);
        let consumer = std::thread::spawn(move || drain(&ring2));
        assert_eq!(consumer.join().unwrap(), vec![2, 3, 4, 5]);
    }
}
