//! The channel between the submit side and a shard worker: a bounded,
//! lock-free single-producer/single-consumer ring with per-slot sequence
//! counters. Every backpressure policy runs on it.
//!
//! Each side does two atomic operations per slot and no syscalls in the
//! common case; waiting sides spin briefly, then yield, then park on a
//! timeout — no wakeup protocol, so neither side ever takes a lock.
//!
//! ## Memory-ordering contract
//!
//! Positions are unbounded `u64`s; slot index is `pos & (capacity − 1)`
//! (capacity is a power of two, ≥ 2). Each slot carries a sequence counter
//! `seq` encoding its lap state:
//!
//! * `seq == pos`       — free: the producer may write it for position `pos`.
//! * `seq == pos + 1`   — full: the job pushed at `pos` is visible.
//! * taking the job out stores `seq = pos + capacity`, re-arming the slot
//!   for the producer's next lap.
//!
//! The producer writes a slot only after an `Acquire` load of `seq == pos`
//! (so the previous lap's move-out happened-before the new write), then
//! publishes with a `Release` store of `pos + 1`. It never trusts the
//! `head` cursor for free space: every slot write checks the slot's own
//! counter.
//!
//! ## Two takers, one winner
//!
//! Jobs leave the ring from the head in two ways: the worker pops them, and
//! under `ShedOldest` the producer evicts the oldest queued job to admit a
//! new one. Both take positions by advancing `head` with a compare-and-swap
//! after seeing `seq == pos + 1` on every slot they claim. Whichever side's
//! CAS wins a position owns that slot's payload: it moves the job out and
//! re-arms the slot with a `Release` store of `pos + capacity`. The loser
//! touches nothing and re-reads `head`. `head` only grows, so a CAS can
//! never succeed on a stale value.
//!
//! The producer evicts only when the ring holds `capacity` queued jobs
//! (`head == tail − capacity`), and the evicted position is exactly the
//! one the new job needs, so each eviction admits exactly one job and the
//! newest job is never the one evicted. When the slot it needs is instead
//! mid-release by the worker (claimed, not yet re-armed), the producer
//! waits for the re-arm rather than evicting a second job.
//!
//! Lifecycle: `closed` means drain-and-exit for the consumer and refuse for
//! the producer; `dead` (set by [`DeathWatch`] if the worker thread dies)
//! makes pushes fail instead of spinning forever.

#![allow(unsafe_code)]

use crate::shard::Job;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Keeps the producer and consumer cursors on separate cache lines so the
/// two sides do not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot {
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<Job>>,
}

/// Bounded SPSC ring; see the module docs for the slot-sequence protocol.
///
/// # Invariants (upheld by the engine, not the type system)
///
/// At most one thread pushes at a time and at most one thread pops at a
/// time (the shard's worker thread; a restarted worker is the *same*
/// thread, so the discipline survives panics). The producer side is
/// `submit_batch_rows_parallel`'s producer lanes, which partition shards by
/// ownership — lane `p` of `P` is the unique pusher for every shard `s`
/// with `s % P == p`. Lanes are joined (scope exit) before the next batch
/// may push, and the join's happens-before edge hands the producer cursor
/// to the next pusher.
///
/// `close` / `mark_dead` / `len` are safe from any thread.
pub(crate) struct SpscRing {
    slots: Box<[Slot]>,
    mask: u64,
    capacity: u64,
    /// Producer cursor: the next position a push writes.
    tail: CachePadded<AtomicU64>,
    /// The oldest position still queued; advanced by CAS (see module docs).
    head: CachePadded<AtomicU64>,
    closed: AtomicBool,
    dead: AtomicBool,
}

// SAFETY: the UnsafeCell payload is only touched under the slot-sequence
// protocol above — a slot is written only by the producer while
// `seq == pos`, and read only by the winner of the `head` CAS for `pos`
// after it saw `seq == pos + 1`. The Acquire/Release pairs on `seq` order
// the payload accesses.
unsafe impl Send for SpscRing {}
unsafe impl Sync for SpscRing {}

/// Spin → yield → park escalation for the waiting side. No unpark pairing:
/// parks are timeout-bounded, so a peer never needs to signal.
struct Backoff(u32);

impl Backoff {
    fn new() -> Self {
        Self(0)
    }

    fn snooze(&mut self) {
        if self.0 < 6 {
            for _ in 0..(1u32 << self.0) {
                std::hint::spin_loop();
            }
        } else if self.0 < 12 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(100));
        }
        self.0 = (self.0 + 1).min(16);
    }
}

impl SpscRing {
    /// A ring holding at least `capacity` jobs (rounded up to a power of
    /// two, minimum 2 — with one slot the "free for this lap" and "full
    /// from last lap" sequence values coincide).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2) as u64;
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: capacity - 1,
            capacity,
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }

    fn slot(&self, pos: u64) -> &Slot {
        &self.slots[(pos & self.mask) as usize]
    }

    /// Dead or closed: pushing would be a silent loss or an eternal wait.
    fn refuses(&self) -> bool {
        self.dead.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire)
    }

    /// Writes `job` at position `pos` if that slot finished its previous
    /// lap; hands the job back otherwise (producer side only).
    fn write(&self, pos: u64, job: Job) -> Result<(), Job> {
        let slot = self.slot(pos);
        if slot.seq.load(Ordering::Acquire) != pos {
            return Err(job);
        }
        // SAFETY: `seq == pos` means the slot's previous job was moved out
        // (Acquire pairs with the taker's Release re-arm), and only this
        // producer writes position `pos`.
        unsafe { (*slot.value.get()).write(job) };
        slot.seq.store(pos + 1, Ordering::Release);
        Ok(())
    }

    /// Claims `n` positions from `head` (each already seen full) with one
    /// CAS, and on success moves their jobs into `sink` and re-arms their
    /// slots. `false` means the other taker moved `head` first.
    fn take(&self, head: u64, n: u64, mut sink: impl FnMut(Job)) -> bool {
        if self
            .head
            .0
            .compare_exchange(head, head + n, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        for pos in head..head + n {
            let slot = self.slot(pos);
            // SAFETY: the caller saw `seq == pos + 1` (Acquire, pairing with
            // the producer's publish), and winning the CAS makes this thread
            // the only taker of `pos`; the producer cannot rewrite the slot
            // before the re-arm below.
            sink(unsafe { (*slot.value.get()).assume_init_read() });
            slot.seq.store(pos + self.capacity, Ordering::Release);
        }
        true
    }

    /// Moves as many jobs as currently fit from the front of `jobs` into
    /// consecutive slots, returning the number pushed (0 when full). `Err`
    /// on a dead or closed ring, with `jobs` untouched.
    pub(crate) fn try_push_batch(&self, jobs: &mut VecDeque<Job>) -> Result<u64, ()> {
        if self.refuses() {
            return Err(());
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut n = 0;
        // Publish in position order — the consumer reads sequentially.
        while let Some(job) = jobs.pop_front() {
            if let Err(job) = self.write(tail + n, job) {
                jobs.push_front(job);
                break;
            }
            n += 1;
        }
        self.tail.0.store(tail + n, Ordering::Relaxed);
        Ok(n)
    }

    /// Always-admitting push (`ShedOldest` backpressure): when the ring is
    /// full, evicts the oldest queued job and returns it so the caller can
    /// count it. Waits only while the worker is mid-release of the slot the
    /// job needs. `Err` on a dead or closed ring.
    pub(crate) fn push_evicting(&self, mut job: Job) -> Result<Option<Job>, ()> {
        if self.refuses() {
            return Err(());
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        let mut evicted = None;
        let mut backoff = Backoff::new();
        loop {
            match self.write(tail, job) {
                Ok(()) => {
                    self.tail.0.store(tail + 1, Ordering::Relaxed);
                    return Ok(evicted);
                }
                Err(j) => job = j,
            }
            // A failed write means position `tail − capacity` is still in
            // the ring; it is the oldest job exactly when it is at the head.
            let oldest = tail - self.capacity;
            let won = evicted.is_none()
                && self.slot(oldest).seq.load(Ordering::Acquire) == oldest + 1
                && self.take(oldest, 1, |j| evicted = Some(j));
            if !won {
                if self.refuses() {
                    return Err(());
                }
                backoff.snooze();
            }
        }
    }

    /// Pops up to `max` already-queued jobs into `out` (appending) under a
    /// single `head` claim. Returns the number popped.
    pub(crate) fn pop_batch(&self, out: &mut Vec<Job>, max: usize) -> usize {
        loop {
            let head = self.head.0.load(Ordering::Acquire);
            let mut n = 0u64;
            while (n as usize) < max
                && self.slot(head + n).seq.load(Ordering::Acquire) == head + n + 1
            {
                n += 1;
            }
            if n == 0 || self.take(head, n, |j| out.push(j)) {
                return n as usize;
            }
            // An eviction moved `head` between the scan and the claim.
        }
    }

    /// Blocking [`pop_batch`](Self::pop_batch): waits for at least one job;
    /// 0 once the ring is closed *and* drained (the graceful-shutdown
    /// signal).
    pub(crate) fn pop_batch_block(&self, out: &mut Vec<Job>, max: usize) -> usize {
        let mut backoff = Backoff::new();
        loop {
            let n = self.pop_batch(out, max);
            if n > 0 {
                return n;
            }
            if self.closed.load(Ordering::Acquire) {
                // Re-check once: a push may have landed just before close.
                return self.pop_batch(out, max);
            }
            backoff.snooze();
        }
    }

    /// Approximate occupancy (metrics only — racy by design).
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.saturating_sub(head) as usize
    }

    /// Shutdown signal: the consumer drains the backlog, then sees 0.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Declares the consumer gone for good; blocked and future pushes fail
    /// instead of spinning on a ring nobody will ever drain.
    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }
}

impl Drop for SpscRing {
    fn drop(&mut self) {
        // Drop any jobs still in flight. `&mut self` means both sides are
        // gone, so plain (get_mut) reads of the cursors are exact.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for pos in head..tail {
            let slot = &mut self.slots[(pos & self.mask) as usize];
            if *slot.seq.get_mut() == pos + 1 {
                // SAFETY: `seq == pos + 1` means this slot holds an
                // unconsumed job; exclusive access via `&mut self`.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

/// Drop guard the worker thread holds: if the supervisor exits by panic
/// (its own bug — detector panics are caught inside it), the guard's `Drop`
/// marks the ring dead on the way out of the thread, upholding the engine's
/// "a dead shard is an error, never a hang" contract.
pub(crate) struct DeathWatch {
    ring: Arc<SpscRing>,
    armed: bool,
}

impl DeathWatch {
    pub(crate) fn arm(ring: Arc<SpscRing>) -> Self {
        Self { ring, armed: true }
    }

    /// Normal worker exit: the ring was closed and drained, not abandoned.
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        if self.armed {
            self.ring.mark_dead();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn job(seq: u64) -> Job {
        Job {
            seq,
            point: vec![seq as f64],
            enqueued: Instant::now(),
        }
    }

    /// One-job push; `false` when the ring is full.
    fn push(r: &SpscRing, seq: u64) -> bool {
        r.try_push_batch(&mut VecDeque::from([job(seq)])).unwrap() == 1
    }

    fn pop(r: &SpscRing) -> Option<u64> {
        let mut out = Vec::new();
        r.pop_batch(&mut out, 1);
        out.pop().map(|j| j.seq)
    }

    /// splitmix-style LCG step shared by the seeded stress tests.
    fn next(rng: &mut u64) -> u64 {
        *rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *rng >> 33
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two_min_two() {
        assert_eq!(SpscRing::new(1).capacity, 2);
        assert_eq!(SpscRing::new(3).capacity, 4);
        assert_eq!(SpscRing::new(4).capacity, 4);
        assert_eq!(SpscRing::new(1000).capacity, 1024);
    }

    #[test]
    fn fifo_order_and_close_drain() {
        let r = SpscRing::new(4);
        for s in 0..3 {
            assert!(push(&r, s));
        }
        r.close();
        let mut out = Vec::new();
        assert_eq!(r.pop_batch_block(&mut out, 2), 2);
        assert_eq!(r.pop_batch_block(&mut out, 2), 1);
        let seqs: Vec<u64> = out.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(r.pop_batch_block(&mut out, 2), 0, "closed and drained");
        assert!(r.try_push_batch(&mut VecDeque::from([job(9)])).is_err());
        assert!(r.push_evicting(job(9)).is_err());
    }

    #[test]
    fn full_ring_hands_job_back_until_a_slot_frees() {
        let r = SpscRing::new(2);
        assert!(push(&r, 0));
        assert!(push(&r, 1));
        let mut jobs = VecDeque::from([job(2)]);
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 0);
        assert_eq!(jobs[0].seq, 2, "the job stays with the caller");
        assert_eq!(pop(&r), Some(0));
        assert!(push(&r, 2));
        assert_eq!(pop(&r), Some(1));
        assert_eq!(pop(&r), Some(2));
        assert_eq!(pop(&r), None);
    }

    #[test]
    fn wraparound_at_capacity_boundaries() {
        // Interleaved bursts lap a tiny ring many times; the slot sequence
        // counters must keep positions straight across every wrap.
        let r = SpscRing::new(4);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for round in 0..100u64 {
            let burst = (round % 4) + 1;
            for _ in 0..burst {
                assert!(push(&r, next_push));
                next_push += 1;
            }
            for _ in 0..burst {
                assert_eq!(pop(&r), Some(next_pop));
                next_pop += 1;
            }
        }
        assert_eq!(r.len(), 0);
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn batch_push_claims_only_free_slots_and_preserves_order() {
        let r = SpscRing::new(4);
        let mut jobs: VecDeque<Job> = (0..6).map(job).collect();
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 4);
        assert_eq!(jobs.len(), 2, "overflow stays with the caller");
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 0, "ring is full");
        let mut out = Vec::new();
        assert_eq!(r.pop_batch(&mut out, 3), 3);
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 2);
        assert_eq!(r.pop_batch(&mut out, 16), 3);
        let seqs: Vec<u64> = out.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn evicting_push_sheds_the_oldest_and_admits_the_newest() {
        let r = SpscRing::new(2);
        assert!(r.push_evicting(job(0)).unwrap().is_none());
        assert!(r.push_evicting(job(1)).unwrap().is_none());
        let evicted = r.push_evicting(job(2)).unwrap().unwrap();
        assert_eq!(evicted.seq, 0, "oldest job is the one shed");
        assert_eq!(r.len(), 2);
        assert_eq!(pop(&r), Some(1));
        assert_eq!(pop(&r), Some(2));
    }

    #[test]
    fn dead_ring_refuses_pushes_and_unblocks_producer() {
        let r = Arc::new(SpscRing::new(2));
        assert!(push(&r, 0));
        assert!(push(&r, 1));
        let r2 = Arc::clone(&r);
        let producer = std::thread::spawn(move || {
            let mut jobs = VecDeque::from([job(2)]);
            loop {
                match r2.try_push_batch(&mut jobs) {
                    Ok(0) => std::thread::yield_now(),
                    Ok(_) => return false,
                    Err(()) => return true,
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        r.mark_dead();
        assert!(producer.join().unwrap(), "blocked push must fail, not hang");
        assert!(r.try_push_batch(&mut VecDeque::new()).is_err());
        assert!(r.push_evicting(job(3)).is_err());
    }

    #[test]
    fn backlog_survives_for_the_same_consumer_thread() {
        // The restart story: a panicked worker restarts *on the same
        // thread*, so jobs pushed before the panic are still in the ring.
        let r = SpscRing::new(8);
        assert!(push(&r, 7));
        assert!(push(&r, 8));
        assert_eq!(pop(&r), Some(7));
        assert_eq!(pop(&r), Some(8));
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_the_backlog() {
        // Exercised under ASan in CI: leaked or double-dropped jobs fail.
        let r = SpscRing::new(4);
        for s in 0..3 {
            assert!(push(&r, s));
        }
        pop(&r).unwrap();
        drop(r);
    }

    #[test]
    fn two_thread_stress_preserves_order_across_wraps() {
        // Seeded two-thread stress over a tiny ring: bursts of seeded sizes
        // force constant wraparound and full/empty transitions; the
        // consumer asserts it sees exactly 0..N in order.
        const N: u64 = 20_000;
        let r = Arc::new(SpscRing::new(8));
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
                let mut pushed = 0u64;
                let mut staged: VecDeque<Job> = VecDeque::new();
                while pushed < N || !staged.is_empty() {
                    let burst = 1 + next(&mut rng) % 7;
                    for _ in 0..burst {
                        if pushed < N {
                            staged.push_back(job(pushed));
                            pushed += 1;
                        }
                    }
                    if r.try_push_batch(&mut staged).unwrap() == 0 || rng & 3 == 0 {
                        std::thread::yield_now();
                    }
                }
                r.close();
            })
        };
        let mut rng: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let mut seen = 0u64;
        let mut out = Vec::new();
        loop {
            let max = 1 + (next(&mut rng) as usize) % 6;
            out.clear();
            if r.pop_batch_block(&mut out, max) == 0 {
                break;
            }
            for j in &out {
                assert_eq!(j.seq, seen, "out-of-order or lost job");
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, N, "every pushed job must be popped exactly once");
    }

    /// The two-takers race: the producer pushes with eviction into a tiny
    /// ring while the consumer batch-pops across wraps, so the head CAS is
    /// contended constantly. Every job is either consumed or evicted —
    /// never both, never neither — the survivors arrive in push order, and
    /// the last job pushed is never evicted.
    #[test]
    fn ring_eviction_stress_counts_every_job_once_across_wraps() {
        const N: u64 = 50_000;
        let r = Arc::new(SpscRing::new(4));
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
                let mut shed = Vec::new();
                for seq in 0..N {
                    if let Some(evicted) = r.push_evicting(job(seq)).unwrap() {
                        shed.push(evicted.seq);
                    }
                    if next(&mut rng).is_multiple_of(64) {
                        std::thread::yield_now();
                    }
                }
                r.close();
                shed
            })
        };
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut scored = Vec::new();
        let mut out = Vec::new();
        loop {
            let max = 1 + (next(&mut rng) as usize) % 5;
            out.clear();
            if r.pop_batch_block(&mut out, max) == 0 {
                break;
            }
            scored.extend(out.iter().map(|j| j.seq));
            if next(&mut rng).is_multiple_of(8) {
                std::thread::yield_now();
            }
        }
        let shed = producer.join().unwrap();
        assert_eq!(
            scored.len() + shed.len(),
            N as usize,
            "scored + shed == pushed"
        );
        assert!(
            scored.windows(2).all(|w| w[0] < w[1]),
            "survivors out of order"
        );
        assert!(
            shed.windows(2).all(|w| w[0] < w[1]),
            "evictions out of order"
        );
        let mut all: Vec<u64> = scored.iter().chain(&shed).copied().collect();
        all.sort_unstable();
        assert!(
            all.iter().copied().eq(0..N),
            "a job was lost or taken twice"
        );
        assert_eq!(scored.last(), Some(&(N - 1)), "the newest job was evicted");
    }

    /// Lane-partitioned multi-producer stress under full-lap wraparound
    /// pressure, with a mid-run worker death. Mirrors the engine's
    /// `submit_batch_rows_parallel` contract: N producer lanes each the
    /// *sole* pusher for their own tiny ring (SPSC per ring is preserved;
    /// multi-producer means many rings, never two pushers on one). One
    /// consumer "dies" with its `DeathWatch` armed partway through — its
    /// lane's producer must fail fast instead of hanging, while every
    /// surviving lane drains its full sequence in order.
    #[test]
    fn lane_partitioned_producers_survive_wraps_and_a_death_watch_kill() {
        const LANES: usize = 4;
        const PER_LANE: u64 = 12_000;
        const KILLED: usize = 2;
        const KILL_AFTER: u64 = 512;

        let rings: Vec<Arc<SpscRing>> = (0..LANES).map(|_| Arc::new(SpscRing::new(8))).collect();

        // Consumers: each ring's unique popper, guarded like a real worker.
        // The killed one returns early without disarming — exactly the
        // supervisor-panic path — so Drop marks its ring dead.
        let consumers: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(idx, ring)| {
                let ring = Arc::clone(ring);
                std::thread::spawn(move || {
                    let mut watch = DeathWatch::arm(Arc::clone(&ring));
                    let mut seen = 0u64;
                    let mut out = Vec::new();
                    while ring.pop_batch_block(&mut out, 1) > 0 {
                        let j = out.pop().unwrap();
                        assert_eq!(j.seq, seen, "ring {idx} delivered out of order");
                        seen += 1;
                        if idx == KILLED && seen == KILL_AFTER {
                            return seen; // armed drop → mark_dead
                        }
                    }
                    watch.disarm();
                    seen
                })
            })
            .collect();

        // Producers: lane p owns ring p outright (the S == P case of the
        // engine's `shard % lanes == lane` ownership rule). Seeded bursts
        // against capacity-8 rings force a full lap every few iterations.
        let producers: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(lane, ring)| {
                let ring = Arc::clone(ring);
                std::thread::spawn(move || {
                    let mut rng: u64 = 0xA076_1D64_78BD_642F ^ ((lane as u64) << 17);
                    let mut staged: VecDeque<Job> = VecDeque::new();
                    let mut pushed = 0u64;
                    while pushed < PER_LANE || !staged.is_empty() {
                        let burst = 1 + next(&mut rng) % 7;
                        for _ in 0..burst {
                            if pushed < PER_LANE {
                                staged.push_back(job(pushed));
                                pushed += 1;
                            }
                        }
                        match ring.try_push_batch(&mut staged) {
                            Ok(0) => std::thread::yield_now(),
                            Ok(_) => {}
                            Err(()) => return Err(lane), // dead ring: fail fast
                        }
                    }
                    Ok(lane)
                })
            })
            .collect();

        let mut dead_lanes = Vec::new();
        for (lane, p) in producers.into_iter().enumerate() {
            match p.join().expect("producer panicked") {
                Ok(done) => assert_eq!(done, lane),
                Err(l) => dead_lanes.push(l),
            }
        }
        // Only the killed lane's producer may observe death; the join
        // completing at all proves nobody hung on the dead ring.
        assert_eq!(dead_lanes, vec![KILLED], "exactly the killed lane fails");

        for ring in &rings {
            ring.close();
        }
        for (idx, c) in consumers.into_iter().enumerate() {
            let seen = c.join().expect("consumer panicked");
            if idx == KILLED {
                assert_eq!(seen, KILL_AFTER);
            } else {
                assert_eq!(seen, PER_LANE, "lane {idx} lost jobs");
            }
        }
        // The dead ring keeps refusing pushes after the fact.
        assert!(rings[KILLED]
            .try_push_batch(&mut VecDeque::from([job(0)]))
            .is_err());
    }
}
