//! A single-producer single-consumer ring queue.
//!
//! The paper's parallel pipeline (§4.4) connects thread 1 (cache eviction)
//! to thread 2 (octree update) through a shared buffer, the C++
//! `readerwriterqueue`. This module is the Rust equivalent: a bounded
//! lock-free Lamport ring with acquire/release synchronisation — enqueue
//! from exactly one thread, dequeue from exactly one other. No backend uses
//! it: the parallel backend hands each batch to a scoped thread. Only the
//! frozen benchmark's `spsc.ns_per_item` probe and the `spsc_stress` test
//! call it, and it goes with the `parallel` backend (ROADMAP item 3).
//!
//! # Example
//!
//! ```
//! let (mut tx, mut rx) = octocache::spsc::channel::<u32>(8);
//! tx.push(7).unwrap();
//! assert_eq!(rx.try_pop(), Some(7));
//! assert_eq!(rx.try_pop(), None);
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Ring<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read.
    head: AtomicUsize,
    /// Next slot the producer will write.
    tail: AtomicUsize,
    mask: usize,
}

// SAFETY: the ring hands each slot to exactly one side at a time — the
// producer writes slots in `tail..head+capacity`, the consumer reads slots in
// `head..tail`, and the atomic indices order those accesses (release on
// publish, acquire on observe). `T: Send` is required because values cross
// threads.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Only one thread can be dropping the last Arc; drain leftovers.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            // SAFETY: slots in head..tail were written and never read.
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop();
            }
            i = i.wrapping_add(1);
        }
    }
}

/// Error returned by [`Producer::push`] when the ring is full; gives the
/// value back.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// The sending half. Not `Clone` — single producer.
#[derive(Debug)]
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of `head` to avoid an atomic load per push.
    head_cache: usize,
}

/// The receiving half. Not `Clone` — single consumer.
#[derive(Debug)]
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Cached copy of `tail` to avoid an atomic load per pop.
    tail_cache: usize,
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &(self.mask + 1))
            .finish_non_exhaustive()
    }
}

/// Creates a bounded SPSC channel with at least `capacity` slots
/// (rounded up to a power of two).
///
/// # Panics
///
/// Panics when `capacity` is zero.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "spsc capacity must be positive");
    let cap = capacity.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let ring = Arc::new(Ring {
        buf,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        mask: cap - 1,
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            head_cache: 0,
        },
        Consumer {
            ring,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.mask + 1
    }

    /// Attempts to enqueue; returns the value inside [`Full`] when the ring
    /// has no free slot.
    pub fn push(&mut self, value: T) -> Result<(), Full<T>> {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head_cache) > self.ring.mask {
            // Refresh the cached head; the consumer may have advanced.
            self.head_cache = self.ring.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.head_cache) > self.ring.mask {
                return Err(Full(value));
            }
        }
        // SAFETY: slot `tail` is unobservable by the consumer until the
        // release store below, and the capacity check guarantees it is free.
        unsafe {
            (*self.ring.buf[tail & self.ring.mask].get()).write(value);
        }
        self.ring
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueues, spinning (with yields) while the ring is full.
    pub fn push_blocking(&mut self, mut value: T) {
        let mut spins = 0u32;
        loop {
            match self.push(value) {
                Ok(()) => return,
                Err(Full(v)) => {
                    value = v;
                    spins += 1;
                    if spins > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// Number of occupied slots (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when no slots are occupied (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Attempts to dequeue; `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        let head = self.ring.head.load(Ordering::Relaxed);
        if head == self.tail_cache {
            self.tail_cache = self.ring.tail.load(Ordering::Acquire);
            if head == self.tail_cache {
                return None;
            }
        }
        // SAFETY: slot `head` was published by the producer's release store
        // (observed via the acquire load of `tail`), and the producer will
        // not reuse it until `head` advances.
        let value = unsafe { (*self.ring.buf[head & self.ring.mask].get()).assume_init_read() };
        self.ring
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Number of occupied slots (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.ring.tail.load(Ordering::Relaxed);
        let head = self.ring.head.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when no slots are occupied (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = channel::<u64>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!(matches!(tx.push(99), Err(Full(99))));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        let (tx, _rx) = channel::<u8>(5);
        assert_eq!(tx.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = channel::<u8>(0);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = channel::<usize>(4);
        for round in 0..100 {
            for i in 0..3 {
                tx.push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.try_pop(), Some(round * 3 + i));
            }
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let (mut tx, mut rx) = channel::<Counted>(8);
            for _ in 0..5 {
                tx.push(Counted).unwrap();
            }
            drop(rx.try_pop()); // one consumed + dropped
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_stress_preserves_order_and_count() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(1024);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.push_blocking(i);
            }
            done2.store(true, Ordering::Release);
        });
        let mut expected = 0u64;
        let mut sum = 0u64;
        loop {
            match rx.try_pop() {
                Some(v) => {
                    assert_eq!(v, expected, "out of order");
                    expected += 1;
                    sum = sum.wrapping_add(v);
                }
                None => {
                    if done.load(Ordering::Acquire) && rx.is_empty() {
                        // Double check: a final drain.
                        if rx.try_pop().is_none() {
                            break;
                        }
                    }
                    std::hint::spin_loop();
                }
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, N);
        assert_eq!(sum, N * (N - 1) / 2);
    }

    #[test]
    fn push_blocking_waits_for_space() {
        let (mut tx, mut rx) = channel::<u32>(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        let t = std::thread::spawn(move || {
            tx.push_blocking(3); // must wait until a pop happens
            tx
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.try_pop(), Some(1));
        let _tx = t.join().unwrap();
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), Some(3));
    }
}
