//! A blocking MPMC work queue sharded into per-consumer deques
//! (`Mutex<VecDeque>` each, one `Condvar`) with randomized work stealing.
//!
//! Std-only by constraint (the container has no crates.io access) and by
//! sufficiency: the unit of work behind each pop is a full prediction —
//! sample-pass execution plus fitting — which is microseconds to
//! milliseconds, so a briefly held lock around each deque is nowhere near
//! contention. Lock-free MPMC would buy nothing here.
//!
//! The queue is poison-tolerant (a consumer that panics mid-pop must not
//! take the whole service down — see [`crate::sync`]) and optionally
//! bounded: [`ShardedWorkQueue::bounded`] plus
//! [`ShardedWorkQueue::push_bounded`] give the service's overload control
//! a high-water mark at which it can shed a *chosen* queued item instead
//! of growing without bound.

use crate::sync::lock_recover;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Outcome of a [`ShardedWorkQueue::push_bounded`] against a capacity-limited
/// queue. The non-`Queued` variants hand the displaced item back to the
/// caller, who owes it a response.
#[derive(Debug, PartialEq, Eq)]
pub enum Pushed<T> {
    /// The item was enqueued (possibly after shedding an older item —
    /// that case is reported as `Shed` carrying the *victim*).
    Queued,
    /// The queue was at capacity: the carried item (either an older
    /// queued victim displaced by the new item, or the new item itself)
    /// was shed.
    Shed(T),
    /// The queue is closed; the new item is handed back untouched.
    Closed(T),
}

/// One step of the splitmix64 generator — the steal-order RNG. Seeded per
/// consumer, so a given consumer's victim order is a pure function of its
/// index and how many pops it has made: fault schedules that replay the
/// same request stream see the same steal attempts.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Close flag, guarded by the queue's sleep lock. Every push and every
/// close linearizes through this mutex, which is what makes "push after
/// close returns false" and "a popper that saw closed+empty may exit"
/// simultaneously sound — no item can sneak into a shard after a popper's
/// authoritative empty scan without the pusher first observing `closed`.
struct SharedState {
    closed: bool,
}

/// A blocking MPMC queue sharded into per-consumer deques with randomized
/// work stealing, close-to-drain shutdown, and optional bounded capacity.
///
/// * **Push** routes round-robin across shards (arrival order is preserved
///   per shard; the global order is FIFO-per-shard, which collapses to
///   exact FIFO at one shard).
/// * **Pop** drains the consumer's own shard first, then makes one seeded
///   steal round over the other shards (splitmix64 victim order, seeded by
///   consumer index), and only then takes the global sleep lock for an
///   authoritative re-scan before blocking. The fast path touches one
///   uncontended shard mutex.
/// * **Overload** ([`Self::push_bounded`]) locks *all* shards in index
///   order at the high-water mark and presents the selector one flattened
///   view — paid only under overload.
/// * **Close-to-drain**: [`Self::close`] rejects further pushes, pending
///   items still drain, and a popper that finds the queue closed and
///   empty is told to exit.
///
/// Lock order: sleep lock (`state`) before any shard lock; shard locks in
/// ascending index order; never the reverse.
pub struct ShardedWorkQueue<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    state: Mutex<SharedState>,
    ready: Condvar,
    /// Advisory total (exact under the state lock, stale otherwise): the
    /// capacity check reads it lock-free and re-verifies under all shard
    /// locks before shedding.
    len: AtomicUsize,
    capacity: Option<usize>,
    next_shard: AtomicUsize,
}

impl<T> ShardedWorkQueue<T> {
    /// An unbounded queue with `shards` independent deques (clamped ≥ 1).
    pub fn new(shards: usize) -> Self {
        Self::build(shards, None)
    }

    /// A bounded queue: [`Self::push_bounded`] sheds past `capacity`
    /// items total (across all shards). Plain [`Self::push`] ignores the
    /// bound (the caller opts into shedding per call site).
    pub fn bounded(shards: usize, capacity: usize) -> Self {
        Self::build(shards, Some(capacity.max(1)))
    }

    fn build(shards: usize, capacity: Option<usize>) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            state: Mutex::new(SharedState { closed: false }),
            ready: Condvar::new(),
            len: AtomicUsize::new(0),
            capacity,
            next_shard: AtomicUsize::new(0),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn route(&self) -> usize {
        self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len()
    }

    /// Pops the front of one shard, maintaining the advisory length.
    fn try_pop_shard(&self, idx: usize) -> Option<T> {
        let item = lock_recover(&self.shards[idx]).pop_front();
        if item.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        item
    }

    /// One pass over every shard in index order. Callers hold the state
    /// lock, making the scan authoritative: a concurrent push cannot
    /// complete (it needs the state lock) while this scan runs.
    fn scan_all(&self) -> Option<T> {
        (0..self.shards.len()).find_map(|i| self.try_pop_shard(i))
    }

    /// Enqueues one item. Returns `false` (dropping the item) if the
    /// queue has been closed. Holding the state lock across the shard
    /// insert is what rules out both lost wakeups (a sleeper's empty scan
    /// and its wait are atomic against pushes) and pushes that land after
    /// a popper already observed closed-and-drained.
    pub fn push(&self, item: T) -> bool {
        let state = lock_recover(&self.state);
        if state.closed {
            return false;
        }
        let idx = self.route();
        lock_recover(&self.shards[idx]).push_back(item);
        self.len.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Enqueues one item against the capacity bound. At the high-water
    /// mark, `select_victim` sees one flattened read-only view of every
    /// queued item (shard 0 front→back, then shard 1, …) plus the incoming
    /// one, and names the flat index to shed — or `None` to shed the
    /// incoming item itself. Either way the shed item is returned in
    /// [`Pushed::Shed`] so the caller can answer it; nothing is silently
    /// dropped. On an unbounded queue this is exactly [`Self::push`].
    pub fn push_bounded(
        &self,
        item: T,
        select_victim: impl FnOnce(&[&T], &T) -> Option<usize>,
    ) -> Pushed<T> {
        let state = lock_recover(&self.state);
        if state.closed {
            return Pushed::Closed(item);
        }
        if let Some(cap) = self.capacity {
            if self.len.load(Ordering::Relaxed) >= cap {
                // Lock every shard (index order) and re-verify: the
                // advisory length may have raced a pop.
                let mut guards: Vec<_> = self.shards.iter().map(lock_recover).collect();
                let total: usize = guards.iter().map(|g| g.len()).sum();
                if total >= cap {
                    let view: Vec<&T> = guards.iter().flat_map(|g| g.iter()).collect();
                    let chosen = select_victim(&view, &item).filter(|&i| i < total);
                    let Some(flat) = chosen else {
                        return Pushed::Shed(item);
                    };
                    // Map the flat index back to (shard, position).
                    let mut offset = 0;
                    for g in guards.iter_mut() {
                        if flat < offset + g.len() {
                            let victim = g.remove(flat - offset).expect("index in bounds");
                            drop(guards);
                            let idx = self.route();
                            lock_recover(&self.shards[idx]).push_back(item);
                            drop(state);
                            self.ready.notify_one();
                            return Pushed::Shed(victim);
                        }
                        offset += g.len();
                    }
                    unreachable!("flat index checked against total");
                }
            }
        }
        let idx = self.route();
        lock_recover(&self.shards[idx]).push_back(item);
        self.len.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
        Pushed::Queued
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained (`None`: the consumer should exit) — so a pop on a closed
    /// queue never blocks. `me` selects the consumer's home shard (taken
    /// modulo the shard count) and `steal_rng` is the consumer's seeded
    /// steal-order state (seed it once per consumer, e.g. with the
    /// consumer index).
    pub fn pop(&self, me: usize, steal_rng: &mut u64) -> Option<T> {
        let n = self.shards.len();
        let home = me % n;
        loop {
            // Fast path: the home shard, then one seeded steal round over
            // the other shards, each visited exactly once in a randomly
            // rotated order.
            if let Some(item) = self.try_pop_shard(home) {
                return Some(item);
            }
            if n > 1 {
                let start = (splitmix64(steal_rng) as usize) % (n - 1);
                for k in 0..n - 1 {
                    let victim = (home + 1 + (start + k) % (n - 1)) % n;
                    if let Some(item) = self.try_pop_shard(victim) {
                        return Some(item);
                    }
                }
            }
            // Slow path: authoritative re-scan under the state lock, then
            // sleep. A push that this scan misses must acquire the state
            // lock to complete, so its notify lands after the wait starts.
            let state = lock_recover(&self.state);
            if let Some(item) = self.scan_all() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            drop(self.ready.wait(state).unwrap_or_else(|p| p.into_inner()));
        }
    }

    /// Closes the queue: pending items still drain, further pushes are
    /// rejected, and blocked poppers wake up.
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }

    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Items currently waiting across all shards (advisory — stale by the
    /// time the caller looks at it).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn one_shard_is_exact_fifo_and_drains_after_close() {
        let q: ShardedWorkQueue<u32> = ShardedWorkQueue::new(1);
        let mut rng = 7;
        for i in 0..8 {
            assert!(q.push(i));
        }
        q.close();
        assert!(!q.push(99), "push after close is rejected");
        for i in 0..8 {
            assert_eq!(
                q.pop(0, &mut rng),
                Some(i),
                "close-to-drain keeps FIFO order"
            );
        }
        assert_eq!(q.pop(0, &mut rng), None);
    }

    #[test]
    fn stealing_delivers_items_pushed_to_other_shards() {
        let q: ShardedWorkQueue<u32> = ShardedWorkQueue::new(4);
        // Round-robin routing spreads 8 items over all 4 shards; a single
        // consumer homed on shard 0 must still drain everything.
        for i in 0..8 {
            assert!(q.push(i));
        }
        q.close();
        let mut rng = 42;
        let mut got: Vec<u32> = std::iter::from_fn(|| q.pop(0, &mut rng)).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_pop_delivers_from_any_shard_then_reports_closed() {
        let q: ShardedWorkQueue<u32> = ShardedWorkQueue::new(3);
        let mut rng = 0;
        q.push(9);
        assert_eq!(q.pop(1, &mut rng), Some(9));
        q.close();
        assert_eq!(q.pop(1, &mut rng), None, "closed and drained never blocks");
    }

    #[test]
    fn sharded_bounded_sheds_with_a_cross_shard_flattened_view() {
        let q: ShardedWorkQueue<u32> = ShardedWorkQueue::bounded(3, 3);
        assert_eq!(q.push_bounded(10, |_, _| None), Pushed::Queued);
        assert_eq!(q.push_bounded(11, |_, _| None), Pushed::Queued);
        assert_eq!(q.push_bounded(12, |_, _| None), Pushed::Queued);
        // Selector declines: incoming is shed, queue untouched.
        assert_eq!(
            q.push_bounded(13, |view, _| {
                assert_eq!(view.len(), 3, "selector sees every queued item");
                None
            },),
            Pushed::Shed(13)
        );
        // Selector picks a victim by value through the flattened view; the
        // flat index maps back to the owning shard regardless of routing.
        let shed = q.push_bounded(14, |view, _| view.iter().position(|&&v| v == 11));
        assert_eq!(shed, Pushed::Shed(11));
        // Out-of-bounds victim index degrades to shedding the incoming.
        assert_eq!(q.push_bounded(15, |_, _| Some(99)), Pushed::Shed(15));
        q.close();
        assert_eq!(q.push_bounded(16, |_, _| None), Pushed::Closed(16));
        let mut rng = 1;
        let mut left: Vec<u32> = std::iter::from_fn(|| q.pop(0, &mut rng)).collect();
        left.sort_unstable();
        assert_eq!(left, vec![10, 12, 14], "victim gone, replacement present");
    }

    #[test]
    fn unbounded_push_bounded_never_sheds() {
        let q: ShardedWorkQueue<u32> = ShardedWorkQueue::new(3);
        for i in 0..100 {
            assert_eq!(q.push_bounded(i, |_, _| Some(0)), Pushed::Queued);
        }
        assert_eq!(q.len(), 100);
    }

    #[test]
    fn sharded_queue_survives_a_poisoned_shard_lock() {
        let q: Arc<ShardedWorkQueue<u32>> = Arc::new(ShardedWorkQueue::new(2));
        assert!(q.push(1));
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = lock_recover(&q.shards[0]);
                panic!("poison a shard lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.push(2));
        q.close();
        let mut rng = 5;
        let mut got: Vec<u32> = std::iter::from_fn(|| q.pop(0, &mut rng)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn sharded_concurrent_producers_and_stealing_consumers_deliver_everything() {
        let q = Arc::new(ShardedWorkQueue::new(4));
        let producers = 4;
        let per_producer = 500;
        let consumers = 3;

        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    assert!(q.push(p * per_producer + i));
                }
            }));
        }
        let mut consumers_h = Vec::new();
        for c in 0..consumers {
            let q = Arc::clone(&q);
            consumers_h.push(std::thread::spawn(move || {
                let mut rng = 0x5EED ^ c as u64;
                let mut got = Vec::new();
                while let Some(v) = q.pop(c, &mut rng) {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().expect("producer");
        }
        q.close();
        let mut all: Vec<usize> = consumers_h
            .into_iter()
            .flat_map(|h| h.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..producers * per_producer).collect();
        assert_eq!(all, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn steal_order_is_a_pure_function_of_the_seed() {
        // Two identical queues, two consumers with the same seed: the
        // popped sequences must match exactly (determinism contract the
        // chaos suite leans on).
        let run = || {
            let q: ShardedWorkQueue<u32> = ShardedWorkQueue::new(4);
            for i in 0..32 {
                q.push(i);
            }
            q.close();
            let mut rng = 0xC0FFEE;
            std::iter::from_fn(|| q.pop(2, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
