//! Cross-thread stress tests for the Lamport SPSC ring that carries the
//! eviction stream from the cache thread to the octree-update worker.
//!
//! A real producer thread and a real consumer thread hammer
//! `push`/`push_blocking`/`try_pop` across every capacity from 1 to 64,
//! checking a sequence oracle: items must arrive exactly once, in order,
//! with no loss, duplication or reordering — the property the pipeline's
//! batch protocol depends on.

use std::thread;

use octocache::spsc::{channel, Full};

/// Repetitions of each capacity sweep.
const REPEATS: usize = 6;

/// Items pushed per (capacity, repeat) cell. Small enough that the full
/// 64-capacity sweep stays fast at the default repeat count.
const ITEMS: u64 = 2_000;

/// Pushes `0..ITEMS` with `push_blocking` while the consumer spins on
/// `try_pop`; every value must come out exactly once, in order.
#[test]
fn blocking_push_preserves_sequence_across_capacities() {
    for rep in 0..REPEATS {
        for capacity in 1..=64usize {
            let (mut tx, mut rx) = channel::<u64>(capacity);
            // Capacity rounds up to the next power of two.
            assert!(tx.capacity() >= capacity);
            assert!(tx.capacity().is_power_of_two());

            let producer = thread::spawn(move || {
                for i in 0..ITEMS {
                    tx.push_blocking(i);
                }
            });

            let mut expected = 0u64;
            while expected < ITEMS {
                if let Some(v) = rx.try_pop() {
                    assert_eq!(
                        v, expected,
                        "capacity {capacity} rep {rep}: out-of-order item"
                    );
                    expected += 1;
                } else {
                    // Yield, not spin: on a loaded (or single-core) machine
                    // the producer needs the timeslice to make progress.
                    thread::yield_now();
                }
            }
            producer.join().expect("producer panicked");
            assert!(rx.is_empty(), "capacity {capacity}: items left behind");
            assert_eq!(rx.try_pop(), None);
        }
    }
}

/// Non-blocking `push` with retry-on-`Full`: the returned item must be the
/// one just offered (nothing is swallowed), and the sequence oracle must
/// still hold. The consumer drains in bursts to vary queue fill levels.
#[test]
fn non_blocking_push_returns_rejected_item_and_keeps_order() {
    for rep in 0..REPEATS {
        for capacity in [1usize, 2, 3, 7, 16, 64] {
            let (mut tx, mut rx) = channel::<u64>(capacity);

            let producer = thread::spawn(move || {
                let mut full_hits = 0u64;
                for i in 0..ITEMS {
                    let mut item = i;
                    loop {
                        match tx.push(item) {
                            Ok(()) => break,
                            Err(Full(rejected)) => {
                                assert_eq!(rejected, i, "push swallowed the offered item");
                                full_hits += 1;
                                item = rejected;
                                thread::yield_now();
                            }
                        }
                    }
                }
                full_hits
            });

            let mut expected = 0u64;
            let mut burst = 0usize;
            while expected < ITEMS {
                if let Some(v) = rx.try_pop() {
                    assert_eq!(
                        v, expected,
                        "capacity {capacity} rep {rep}: out-of-order item"
                    );
                    expected += 1;
                    burst += 1;
                    // Pause between bursts so the ring oscillates between
                    // full and empty instead of settling into lockstep.
                    if burst.is_multiple_of(capacity * 3 + 1) {
                        thread::yield_now();
                    }
                } else {
                    thread::yield_now();
                }
            }
            let full_hits = producer.join().expect("producer panicked");
            assert!(rx.is_empty());
            // Not a correctness property, but on a capacity-1 ring with a
            // bursty consumer the producer must have seen `Full` at least
            // once, proving the rejection path actually ran.
            if capacity == 1 {
                assert!(full_hits > 0, "Full path never exercised");
            }
        }
    }
}

/// Teardown while items are in flight: the consumer walks away mid-stream
/// (simulating a dead worker), the producer keeps pushing until the ring
/// jams, then both halves drop. Every item must be dropped exactly once —
/// whether it was consumed, abandoned by the producer, or drained from the
/// ring by the last half's `Drop`. Leaks or double-drops here would turn a
/// worker fault into memory unsoundness in the pipeline.
#[test]
fn teardown_mid_stream_drops_every_item_exactly_once() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counts its own drops; a clone of the shared counter per item.
    struct Tracked(Arc<AtomicU64>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    const TOTAL: u64 = 500;
    for rep in 0..REPEATS {
        for capacity in [1usize, 2, 8, 64] {
            // Drain strictly fewer items than the producer offers, so the
            // ring still holds (or will receive) items when the consumer
            // abandons it.
            for drain in [0u64, 1, TOTAL / 2] {
                let drops = Arc::new(AtomicU64::new(0));
                let (mut tx, mut rx) = channel::<Tracked>(capacity);

                let d = Arc::clone(&drops);
                // Returns how many `Tracked` items it created; every one
                // must eventually be dropped exactly once.
                let producer = thread::spawn(move || -> u64 {
                    let mut created = 0u64;
                    for _ in 0..TOTAL {
                        let mut item = Tracked(Arc::clone(&d));
                        created += 1;
                        let mut attempts = 0u32;
                        loop {
                            match tx.push(item) {
                                Ok(()) => break,
                                Err(Full(rejected)) => {
                                    item = rejected;
                                    attempts += 1;
                                    if attempts > 200 {
                                        // Consumer is gone and the ring is
                                        // jammed: abandon this item (drops
                                        // here) and stop producing.
                                        drop(item);
                                        return created;
                                    }
                                    thread::yield_now();
                                }
                            }
                        }
                    }
                    // `tx` drops here; if `rx` is already gone this is the
                    // last half and `Ring::drop` drains the leftovers.
                    created
                });

                let consumer = thread::spawn(move || -> u64 {
                    let mut popped = 0u64;
                    let mut empty_polls = 0u32;
                    // Bounded patience so a producer that gave up (jammed
                    // ring) cannot strand the consumer.
                    while popped < drain && empty_polls < 100_000 {
                        if rx.try_pop().is_some() {
                            popped += 1;
                            empty_polls = 0;
                        } else {
                            empty_polls += 1;
                            thread::yield_now();
                        }
                    }
                    // Walk away with items still in flight.
                    drop(rx);
                    popped
                });

                let created = producer.join().expect("producer panicked");
                let popped = consumer.join().expect("consumer panicked");

                // Both halves are gone, so the ring itself has been dropped
                // and drained. Exactly-once: consumed + abandoned + drained
                // must equal the number of items ever created.
                let dropped = drops.load(Ordering::SeqCst);
                assert_eq!(
                    dropped,
                    created,
                    "capacity {capacity} drain {drain} rep {rep}: \
                     {created} items created but {dropped} drops — \
                     {}",
                    if dropped < created {
                        "leak"
                    } else {
                        "double drop"
                    }
                );
                assert!(
                    created >= popped && created <= TOTAL,
                    "capacity {capacity} drain {drain} rep {rep}: \
                     {created} created but {popped} consumed"
                );
            }
        }
    }
}

/// Same teardown, but with the producer finishing first: push everything,
/// drop `tx`, then the consumer pops a few and drops `rx` with items still
/// inside. The ring's own `Drop` must reclaim the rest — exactly once.
#[test]
fn consumer_abandonment_after_producer_exit_reclaims_ring_contents() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[derive(Debug)]
    struct Tracked(Arc<AtomicU64>);
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    for capacity in [1usize, 4, 32] {
        let real_capacity = capacity.next_power_of_two() as u64;
        for consumed in 0..=real_capacity {
            let drops = Arc::new(AtomicU64::new(0));
            let (mut tx, mut rx) = channel::<Tracked>(capacity);
            for _ in 0..real_capacity {
                tx.push(Tracked(Arc::clone(&drops))).expect("fits");
            }
            drop(tx);
            for _ in 0..consumed {
                let item = rx.try_pop().expect("item available");
                drop(item);
            }
            assert_eq!(drops.load(Ordering::SeqCst), consumed);
            drop(rx); // last half: Ring::drop drains the remainder
            assert_eq!(
                drops.load(Ordering::SeqCst),
                real_capacity,
                "capacity {real_capacity} consumed {consumed}: \
                 in-flight items not reclaimed exactly once"
            );
        }
    }
}

/// `len`/`is_empty` observed from both ends stay within the ring's
/// capacity and agree with the net flow, single-threaded edge-case sweep.
#[test]
fn len_tracks_net_flow_at_every_capacity() {
    for requested in 1..=64usize {
        let (mut tx, mut rx) = channel::<u64>(requested);
        // The ring rounds the requested capacity up to a power of two;
        // everything below works against the real slot count.
        let capacity = tx.capacity();
        assert!(capacity >= requested);
        assert!(tx.is_empty() && rx.is_empty());

        // Fill to capacity; the next push must be rejected.
        for i in 0..capacity as u64 {
            tx.push(i).expect("ring not full yet");
            assert_eq!(tx.len(), i as usize + 1);
            assert_eq!(rx.len(), i as usize + 1);
        }
        match tx.push(u64::MAX) {
            Err(Full(v)) => assert_eq!(v, u64::MAX),
            Ok(()) => panic!("capacity {capacity}: accepted beyond capacity"),
        }

        // Drain interleaved with refills: len must follow the net flow.
        for round in 0..capacity as u64 {
            assert_eq!(rx.try_pop(), Some(round));
            assert_eq!(rx.len(), capacity - 1);
            tx.push(capacity as u64 + round).expect("slot just freed");
            assert_eq!(tx.len(), capacity);
        }
        for round in 0..capacity as u64 {
            assert_eq!(rx.try_pop(), Some(capacity as u64 + round));
        }
        assert!(rx.is_empty() && tx.is_empty());
        assert_eq!(rx.try_pop(), None);
    }
}
