//! Order-preserving bounded buffers between pipeline stages — the
//! equivalent of StreamPU's scatter/gather adaptors.
//!
//! An [`OrderedRing`] connects `n` producer replicas to `m` consumer
//! replicas (any `n, m >= 1`, covering the replicated→replicated links of
//! StreamPU v1.6.0). Producers push frames tagged with a global sequence
//! number; consumers pop *specific* sequence numbers (replica `w` of an
//! `r`-replica stage pops `w, w+r, w+2r, ...`), which realizes round-robin
//! scatter with end-to-end frame ordering.
//!
//! **Admission.** Capacity is a sliding window over sequence numbers:
//! frame `s` may enter only once every frame below `s - capacity + 1` has
//! been popped. A frame popped ahead of a lower one frees no room. This is
//! the back-pressure rule of the `amp-sim` recurrence, where frame `s`
//! enters a buffer no earlier than the next stage pulls frame
//! `s - capacity`.
//!
//! **Storage.** One mutex guards a window of slots (`Empty`, `Full`,
//! `Popped`) indexed by `seq - next_out`, where `next_out` is the lowest
//! frame not yet popped. A pop of frame `next_out` trims the popped run
//! off the window's front. The window grows on demand up to `capacity`
//! slots, so nothing is allocated up front and a large capacity stays
//! cheap.
//!
//! **Wake-ups.** Parked producers and consumers are counted under the
//! lock, and a condvar is notified only when one of its threads is
//! parked. A push wakes parked consumers. Parked producers are woken only
//! when a pop advanced `next_out` and at least `capacity.div_ceil(2)`
//! window slots are free, or when a consumer is about to park. A producer
//! blocked on a full ring is therefore woken once per half ring, not once
//! per frame. For capacities 1 and 2 the threshold is one slot, which
//! every pop that advances `next_out` frees, so a parked producer learns
//! of room at the same pop as with a wake per pop. The rule changes only
//! *when* a parked producer learns of a free slot, never which frames are
//! admissible, so admission still matches `amp-sim`. The consumer-side
//! wake keeps every ring live: a consumer parks only while its frame is
//! missing, and the producer owning that frame is then woken to push it.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// One sequence number's place in the window.
enum Slot<D> {
    /// Admissible, not pushed yet.
    Empty,
    /// Pushed, waiting for its consumer.
    Full(D),
    /// Popped ahead of a lower frame.
    Popped,
}

struct RingState<D> {
    /// Slots of frames `next_out..next_out + window.len()`.
    window: VecDeque<Slot<D>>,
    /// Lowest sequence number not yet popped.
    next_out: u64,
    /// `Full` and `Popped` slots in the window.
    taken: u64,
    /// Producers waiting in [`OrderedRing::push`].
    parked_producers: usize,
    /// Consumers waiting in [`OrderedRing::pop`].
    parked_consumers: usize,
    /// Total frame count, once the producer side has finished.
    closed_total: Option<u64>,
}

/// A bounded, order-preserving n→m frame buffer.
pub struct OrderedRing<D> {
    state: Mutex<RingState<D>>,
    not_full: Condvar,
    available: Condvar,
    capacity: u64,
}

impl<D> OrderedRing<D> {
    /// Creates a ring admitting at most `capacity` in-flight frames,
    /// starting at sequence number 0.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        OrderedRing::with_base(capacity, 0)
    }

    /// Creates a ring whose first frame is sequence number `base` — the
    /// epoch-migration form: after a reconfiguration at frame boundary
    /// `base`, fresh rings carry frames `base..` and the sliding capacity
    /// window opens at `base` instead of 0.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_base(capacity: u64, base: u64) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        OrderedRing {
            state: Mutex::new(RingState {
                window: VecDeque::new(),
                next_out: base,
                taken: 0,
                parked_producers: 0,
                parked_consumers: 0,
                closed_total: None,
            }),
            not_full: Condvar::new(),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Inserts frame `seq`, blocking while the window is full.
    ///
    /// # Panics
    /// Panics on duplicate sequence numbers or pushes past a close — both
    /// are pipeline wiring bugs, not runtime conditions.
    pub fn push(&self, seq: u64, data: D) {
        let mut st = self.state.lock();
        assert!(
            st.closed_total.is_none_or(|t| seq < t),
            "push of frame {seq} after close"
        );
        while seq >= st.next_out.saturating_add(self.capacity) {
            st.parked_producers += 1;
            self.not_full.wait(&mut st);
            st.parked_producers -= 1;
        }
        // Below `next_out` the frame was already popped.
        let at = seq
            .checked_sub(st.next_out)
            .unwrap_or_else(|| panic!("duplicate push of frame {seq}")) as usize;
        if at >= st.window.len() {
            st.window.resize_with(at + 1, || Slot::Empty);
        }
        let slot = std::mem::replace(&mut st.window[at], Slot::Full(data));
        assert!(matches!(slot, Slot::Empty), "duplicate push of frame {seq}");
        st.taken += 1;
        if st.parked_consumers > 0 {
            self.available.notify_all();
        }
    }

    /// Removes and returns frame `seq`, blocking until it arrives. Returns
    /// `None` when the ring is closed with a total at or below `seq` (the
    /// consumer is past the final frame).
    #[must_use]
    pub fn pop(&self, seq: u64) -> Option<D> {
        let mut st = self.state.lock();
        loop {
            let at = seq.checked_sub(st.next_out).map(|d| d as usize);
            if let Some(slot) = at.and_then(|i| st.window.get_mut(i)) {
                match std::mem::replace(slot, Slot::Popped) {
                    Slot::Full(data) => {
                        if at == Some(0) {
                            self.advance(&mut st);
                        }
                        return Some(data);
                    }
                    other => *slot = other,
                }
            }
            if st.closed_total.is_some_and(|total| seq >= total) {
                return None;
            }
            if st.parked_producers > 0 {
                self.not_full.notify_all();
            }
            st.parked_consumers += 1;
            self.available.wait(&mut st);
            st.parked_consumers -= 1;
        }
    }

    /// Trims the popped run off the window's front after frame `next_out`
    /// was popped, and wakes parked producers once half the ring is free.
    fn advance(&self, st: &mut RingState<D>) {
        while matches!(st.window.front(), Some(Slot::Popped)) {
            st.window.pop_front();
            st.next_out += 1;
            st.taken -= 1;
        }
        let free = self.capacity - st.taken;
        if st.parked_producers > 0 && free >= self.capacity.div_ceil(2) {
            self.not_full.notify_all();
        }
    }

    /// Marks the producer side finished: exactly `total` frames
    /// (sequence numbers `0..total`) will ever exist. Wakes all consumers.
    pub fn close(&self, total: u64) {
        let mut st = self.state.lock();
        debug_assert!(st.closed_total.is_none(), "ring closed twice");
        st.closed_total = Some(total);
        if st.parked_consumers > 0 {
            self.available.notify_all();
        }
    }

    /// The total frame count, once closed.
    #[must_use]
    pub fn closed_total(&self) -> Option<u64> {
        self.state.lock().closed_total
    }

    /// Producers waiting in [`OrderedRing::push`].
    #[cfg(test)]
    fn parked_producers(&self) -> usize {
        self.state.lock().parked_producers
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn passes_frames_in_any_pop_order() {
        let ring = OrderedRing::new(8);
        ring.push(1, "b");
        ring.push(0, "a");
        assert_eq!(ring.pop(1), Some("b"));
        assert_eq!(ring.pop(0), Some("a"));
    }

    #[test]
    fn capacity_window_blocks_producers() {
        let ring = Arc::new(OrderedRing::new(2));
        let r = ring.clone();
        let producer = thread::spawn(move || {
            for seq in 0..6u64 {
                r.push(seq, seq);
            }
            r.close(6);
        });
        // Frame 2 may only enter once frame 0 is popped; popping slowly
        // must still drain everything.
        let mut got = Vec::new();
        for seq in 0..6u64 {
            got.push(ring.pop(seq).unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(ring.pop(6), None);
    }

    #[test]
    fn n_to_m_with_round_robin_consumers() {
        // 2 producers, 3 consumers, 60 frames.
        let ring = Arc::new(OrderedRing::new(4));
        let total = 60u64;
        let mut handles = Vec::new();
        for p in 0..2u64 {
            let r = ring.clone();
            handles.push(thread::spawn(move || {
                let mut seq = p;
                while seq < total {
                    r.push(seq, seq * 10);
                    seq += 2;
                }
            }));
        }
        let producers = handles;
        let closer = {
            let r = ring.clone();
            thread::spawn(move || r.close(total))
        };
        let mut consumers = Vec::new();
        for w in 0..3u64 {
            let r = ring.clone();
            consumers.push(thread::spawn(move || {
                let mut seq = w;
                let mut got = Vec::new();
                while let Some(v) = r.pop(seq) {
                    got.push((seq, v));
                    seq += 3;
                }
                got
            }));
        }
        for h in producers {
            h.join().unwrap();
        }
        closer.join().unwrap();
        let mut all: Vec<(u64, u64)> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len(), 60);
        for (i, (seq, v)) in all.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*v, seq * 10);
        }
    }

    #[test]
    fn close_wakes_waiting_consumers() {
        let ring: Arc<OrderedRing<u64>> = Arc::new(OrderedRing::new(4));
        let r = ring.clone();
        let consumer = thread::spawn(move || r.pop(5));
        thread::sleep(std::time::Duration::from_millis(20));
        ring.close(3);
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn pop_before_close_still_returns_frames_below_total() {
        let ring = OrderedRing::new(4);
        ring.push(0, 7u64);
        ring.close(1);
        assert_eq!(ring.pop(0), Some(7));
        assert_eq!(ring.pop(1), None);
    }

    #[test]
    fn based_ring_windows_from_its_base() {
        // An epoch ring starting at frame 1000 must admit 1000 and 1001
        // immediately (capacity 2) and block 1002 until 1000 is popped.
        let ring = Arc::new(OrderedRing::with_base(2, 1000));
        ring.push(1000, "a");
        ring.push(1001, "b");
        let r = ring.clone();
        let producer = thread::spawn(move || {
            r.push(1002, "c");
            r.close(1003);
        });
        assert_eq!(ring.pop(1000), Some("a"));
        assert_eq!(ring.pop(1001), Some("b"));
        assert_eq!(ring.pop(1002), Some("c"));
        producer.join().unwrap();
        assert_eq!(ring.pop(1003), None);
    }

    #[test]
    fn based_ring_closed_empty_returns_none_at_base() {
        let ring: OrderedRing<u64> = OrderedRing::with_base(4, 50);
        ring.close(50);
        assert_eq!(ring.pop(50), None);
    }

    #[test]
    #[should_panic(expected = "duplicate push")]
    fn duplicate_push_panics() {
        let ring = OrderedRing::new(4);
        ring.push(0, 1u64);
        ring.push(0, 2u64);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = OrderedRing::<u64>::new(0);
    }

    #[test]
    fn popped_ahead_frame_frees_no_room() {
        let ring = Arc::new(OrderedRing::new(2));
        ring.push(0, 0u64);
        ring.push(1, 1);
        assert_eq!(ring.pop(1), Some(1));
        let r = ring.clone();
        let producer = thread::spawn(move || r.push(2, 2));
        // Frame 2 needs frame 0 popped, not just any frame.
        while ring.parked_producers() == 0 {
            thread::yield_now();
        }
        assert!(!producer.is_finished());
        assert_eq!(ring.pop(0), Some(0));
        producer.join().unwrap();
        assert_eq!(ring.pop(2), Some(2));
    }

    #[test]
    fn a_parking_consumer_wakes_the_producer_of_its_frame() {
        // Capacity 5 wakes parked producers once 3 slots are free.
        let ring = Arc::new(OrderedRing::new(5));
        for seq in 0..5 {
            ring.push(seq, seq);
        }
        let r = ring.clone();
        let producer = thread::spawn(move || r.push(5, 5));
        while ring.parked_producers() == 0 {
            thread::yield_now();
        }
        // Other producers keep the window all but full, so no pop frees
        // 3 slots: frame 5 becomes admissible without a wake.
        assert_eq!(ring.pop(0), Some(0));
        for seq in 1..5 {
            assert_eq!(ring.pop(seq), Some(seq));
            ring.push(seq + 5, seq + 5);
        }
        let (tx, rx) = mpsc::channel();
        let r = ring.clone();
        thread::spawn(move || tx.send(r.pop(5)).unwrap());
        let got = rx.recv_timeout(Duration::from_secs(20));
        assert_eq!(got, Ok(Some(5)), "the producer of frame 5 slept on");
        producer.join().unwrap();
    }

    /// SplitMix64: a seeded stream for the liveness test's stalls.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A short stall on one call in eight: a sleep of up to 31 µs or up
    /// to 15 yields.
    pub(crate) fn maybe_stall(state: &mut u64) {
        let r = next(state);
        match r % 16 {
            0 => thread::sleep(Duration::from_micros(r >> 59)),
            1 => (0..r >> 60).for_each(|_| thread::yield_now()),
            _ => {}
        }
    }

    /// `producers` replicas push frames `0..frames`, round-robin or, when
    /// `claimed`, claimed from a shared counter like the source stage;
    /// `consumers` replicas pop round-robin. Both sides stall at random.
    /// Fails if the run does not finish within `deadline`, so a missed
    /// wake-up fails instead of hanging, or if any frame is lost,
    /// duplicated or carries another frame's payload.
    fn run_n_to_m(
        seed: u64,
        (producers, consumers, capacity): (u64, u64, u64),
        frames: u64,
        claimed: bool,
        deadline: Duration,
    ) {
        let ring = Arc::new(OrderedRing::new(capacity));
        let claim = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel::<Vec<(u64, u64)>>();
        let pushers: Vec<_> = (0..producers)
            .map(|p| {
                let (r, claim) = (ring.clone(), claim.clone());
                thread::spawn(move || {
                    let mut rng = seed ^ (p << 32);
                    let mut next_own = p;
                    loop {
                        let seq = if claimed {
                            claim.fetch_add(1, Ordering::Relaxed)
                        } else {
                            next_own
                        };
                        if seq >= frames {
                            break;
                        }
                        maybe_stall(&mut rng);
                        r.push(seq, seq ^ seed);
                        next_own += producers;
                    }
                })
            })
            .collect();
        {
            let (r, tx) = (ring.clone(), tx.clone());
            thread::spawn(move || {
                for h in pushers {
                    h.join().unwrap();
                }
                r.close(frames);
                tx.send(Vec::new()).unwrap();
            });
        }
        for w in 0..consumers {
            let (r, tx) = (ring.clone(), tx.clone());
            thread::spawn(move || {
                let mut rng = seed ^ (w << 48) ^ 1;
                let mut got = Vec::new();
                let mut seq = w;
                while let Some(v) = r.pop(seq) {
                    got.push((seq, v));
                    seq += consumers;
                    maybe_stall(&mut rng);
                }
                tx.send(got).unwrap();
            });
        }
        drop(tx);
        let end = Instant::now() + deadline;
        let mut all = Vec::new();
        for _ in 0..=consumers {
            let left = end.saturating_duration_since(Instant::now());
            all.extend(rx.recv_timeout(left).unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: {producers}->{consumers} at capacity {capacity} \
                     stalled: {e}"
                )
            }));
        }
        all.sort_unstable();
        assert_eq!(all.len() as u64, frames, "seed {seed}: frame count");
        for (i, &(seq, v)) in all.iter().enumerate() {
            assert_eq!(seq, i as u64, "seed {seed}: hole or duplicate");
            assert_eq!(v, seq ^ seed, "seed {seed}: payload of frame {seq}");
        }
    }

    /// Every shape of 1–3 producers, 1–3 consumers and capacities 1–5.
    fn liveness_grid(frames: u64, deadline: Duration) {
        let mut seed = 0;
        for producers in 1..=3 {
            for consumers in 1..=3 {
                for capacity in 1..=5 {
                    seed += 1;
                    let shape = (producers, consumers, capacity);
                    run_n_to_m(seed, shape, frames, seed % 2 == 0, deadline);
                }
            }
        }
    }

    #[test]
    fn n_to_m_stays_live_under_random_stalls() {
        liveness_grid(400, Duration::from_secs(30));
    }

    #[test]
    #[ignore = "a million frames; scripts/ci.sh runs it in release mode"]
    fn n_to_m_stays_live_for_a_million_frames() {
        liveness_grid(1_000_000_u64.div_ceil(45), Duration::from_secs(300));
    }
}
