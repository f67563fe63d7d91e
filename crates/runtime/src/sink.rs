//! The pipeline's record of sink departures, bounded in size, and the
//! source's in-flight window over those departures.
//!
//! A run's report needs the departure count, the last departure time and
//! the time of the departure at the warm-up cut; the sink gap of a
//! migration at frame boundary `b` needs the departure times of frames
//! `b - 1` and `b`. The record keeps exactly these. Candidates for the
//! warm-up cut are every `stride`-th departure time, in at most
//! [`MAX_SAMPLES`] entries: when the samples fill up, every other one is
//! dropped and the stride doubles. So the record's size does not grow
//! with the run, and a run of at most [`MAX_SAMPLES`] departures keeps
//! every departure time.
//!
//! **Credit window.** A frame is in flight from the source stage's claim
//! to its sink departure, and at most `W` frames are
//! (`Solution::in_flight_window`): the source may claim frame `f` only
//! once `f + 1 - W` frames have departed. Frames are numbered across
//! epochs and an epoch starts after its predecessor drained, so the
//! run's departure count is the credit count. A source that finds no
//! credit parks, and departures wake it only once `⌈W/2⌉` credits are
//! free for the lowest frame waiting: a source stage that outruns the
//! bottleneck wakes once per half window, the rule the rings apply to
//! producers. The wake always comes. Every frame below the lowest one
//! waiting was claimed and has passed the window, so all of them depart,
//! and the wake needs at most `f - ⌊W/2⌋` departures for frame `f`.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most departure times the record keeps.
pub(crate) const MAX_SAMPLES: usize = 4096;

/// Departure times of the frames on each side of a migration boundary.
struct Boundary {
    /// First frame of the new epoch.
    frame: u64,
    /// Departure of frame `frame - 1`.
    before: Option<u64>,
    /// Departure of frame `frame`.
    after: Option<u64>,
}

/// Sink departures of a pipeline, in time order, in a fixed-size record.
pub(crate) struct SinkRecord {
    departures: u64,
    last_nanos: u64,
    /// The highest frame departed so far and its departure time.
    top: Option<(u64, u64)>,
    /// `samples[k]` is the time of departure `k * stride`, counting
    /// departures in time order from 0.
    samples: Vec<u64>,
    /// A power of two.
    stride: u64,
    boundaries: Vec<Boundary>,
}

impl SinkRecord {
    pub(crate) fn new() -> Self {
        SinkRecord {
            departures: 0,
            last_nanos: 0,
            top: None,
            samples: Vec::with_capacity(MAX_SAMPLES),
            stride: 1,
            boundaries: Vec::new(),
        }
    }

    /// Records frame `frame` departing at `nanos`. Departures must be
    /// recorded in time order.
    pub(crate) fn depart(&mut self, frame: u64, nanos: u64) {
        let index = self.departures;
        self.departures += 1;
        self.last_nanos = nanos;
        if self.top.is_none_or(|(top, _)| frame > top) {
            self.top = Some((frame, nanos));
        }
        if index & (self.stride - 1) == 0 {
            if self.samples.len() == MAX_SAMPLES {
                for k in 0..MAX_SAMPLES / 2 {
                    self.samples[k] = self.samples[2 * k];
                }
                self.samples.truncate(MAX_SAMPLES / 2);
                self.stride *= 2;
            }
            // A full record last sampled departure `4095 * stride`, so
            // this one is `4096 * stride`: on the doubled grid too.
            self.samples.push(nanos);
        }
        // Only the latest boundaries can still wait for their frame.
        for b in self.boundaries.iter_mut().rev() {
            if b.frame != frame || b.after.is_some() {
                break;
            }
            b.after = Some(nanos);
        }
    }

    /// Marks a migration at frame boundary `frame`. Call it at the drain
    /// barrier: every frame below `frame` has departed, and none at or
    /// above it.
    pub(crate) fn mark_boundary(&mut self, frame: u64) {
        let before = self
            .top
            .filter(|&(top, _)| top + 1 == frame)
            .map(|(_, nanos)| nanos);
        self.boundaries.push(Boundary {
            frame,
            before,
            after: None,
        });
    }

    /// Departures so far.
    pub(crate) fn departures(&self) -> u64 {
        self.departures
    }

    /// Time of the latest departure (0 before the first).
    pub(crate) fn last_nanos(&self) -> u64 {
        self.last_nanos
    }

    /// The latest sampled departure at or before departure `k`: its index
    /// and time. `k` must be below [`SinkRecord::departures`].
    pub(crate) fn sample_at_or_before(&self, k: u64) -> (u64, u64) {
        let slot = k / self.stride;
        (slot * self.stride, self.samples[slot as usize])
    }

    /// Departure of frame `frame` minus departure of frame `frame - 1`,
    /// for a marked boundary whose two frames have both departed.
    pub(crate) fn gap_nanos(&self, frame: u64) -> Option<u64> {
        let b = self.boundaries.iter().find(|b| b.frame == frame)?;
        Some(b.after?.saturating_sub(b.before?))
    }
}

/// The record and the sources parked on the window, under one lock.
pub(crate) struct SinkState {
    pub(crate) record: SinkRecord,
    /// Source replicas waiting for credit.
    parked: usize,
    /// Departure count that wakes them (`u64::MAX` when none waits).
    wake_at: u64,
}

/// The sink side of a running pipeline: its departure record and the
/// source's credit window.
pub(crate) struct Sink {
    state: Mutex<SinkState>,
    /// Parked source replicas wait here.
    credit: Condvar,
    /// The record's departure count, readable without the lock.
    departed: AtomicU64,
}

impl Sink {
    pub(crate) fn new() -> Self {
        Sink {
            state: Mutex::new(SinkState {
                record: SinkRecord::new(),
                parked: 0,
                wake_at: u64::MAX,
            }),
            credit: Condvar::new(),
            departed: AtomicU64::new(0),
        }
    }

    /// Records frame `frame` departing at `now()`, read under the lock so
    /// departures arrive in time order, and wakes parked sources once
    /// their credit is due.
    pub(crate) fn depart(&self, frame: u64, now: impl FnOnce() -> u64) {
        let mut st = self.state.lock();
        st.record.depart(frame, now());
        let departed = st.record.departures();
        self.departed.store(departed, Ordering::Release);
        if st.parked > 0 && departed >= st.wake_at {
            st.wake_at = u64::MAX;
            self.credit.notify_all();
        }
    }

    /// Blocks until the source may claim frame `seq` under a window of
    /// `window` frames: until `seq + 1 - window` frames have departed.
    pub(crate) fn admit(&self, seq: u64, window: u64) {
        let due = (seq + 1).saturating_sub(window);
        if self.departed.load(Ordering::Acquire) >= due {
            return;
        }
        let mut st = self.state.lock();
        while st.record.departures() < due {
            // Half the window free: `seq - departed <= window / 2`.
            st.wake_at = st.wake_at.min(due + window.div_ceil(2) - 1);
            st.parked += 1;
            self.credit.wait(&mut st);
            st.parked -= 1;
        }
    }

    /// The departure count, without the lock.
    pub(crate) fn departures(&self) -> u64 {
        self.departed.load(Ordering::Acquire)
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.state.lock()
    }
}

#[cfg(test)]
impl SinkRecord {
    /// Heap and inline bytes the record holds.
    pub(crate) fn footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.samples.capacity() * std::mem::size_of::<u64>()
            + self.boundaries.capacity() * std::mem::size_of::<Boundary>()
    }

    /// Departure times held.
    pub(crate) fn samples_held(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
impl Sink {
    /// Source replicas parked on the window.
    pub(crate) fn parked_sources(&self) -> usize {
        self.state.lock().parked
    }
}
