//! A fault wrap that holds a shard's worker, for the socket tests that
//! need a request to stay outstanding on purpose.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amp_core::sched::{SchedScratch, Scheduler};
use amp_core::{Resources, Solution, TaskChain};
use amp_service::StrategyWrap;
use crossbeam::channel::{self, Receiver, Sender};

/// Longest a parked solve waits for its release.
pub const HOLD: Duration = Duration::from_secs(10);

/// The handles of a [`gate`].
pub struct Gate {
    /// The engine's fault wrap.
    pub wrap: StrategyWrap,
    /// While set, the next solve the wrap sees parks (and clears it).
    pub armed: Arc<AtomicBool>,
    /// One message per parked solve, sent as it parks.
    pub parked: Receiver<()>,
    /// Releases the parked solve.
    pub release: Sender<()>,
}

/// A fault wrap that parks the next solve it sees once armed: the solve
/// reports on `parked`, then waits for `release` (at most [`HOLD`]).
/// Cache hits and chain-tier serves run no wrapped solver, so only a
/// direct solve (FERTAC, 2CATAC, or HeRAD with the tier off) parks.
pub fn gate(armed: bool) -> Gate {
    struct Park {
        inner: Box<dyn Scheduler>,
        armed: Arc<AtomicBool>,
        parked: Sender<()>,
        release: Receiver<()>,
    }
    impl Scheduler for Park {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn schedule_into(
            &self,
            chain: &TaskChain,
            resources: Resources,
            scratch: &mut SchedScratch,
            out: &mut Solution,
        ) -> bool {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.parked.send(()).expect("the test listens");
                let _ = self.release.recv_timeout(HOLD);
            }
            self.inner.schedule_into(chain, resources, scratch, out)
        }
    }
    let (parked_tx, parked) = channel::unbounded();
    let (release, release_rx) = channel::unbounded();
    let armed = Arc::new(AtomicBool::new(armed));
    let wrap_armed = Arc::clone(&armed);
    let wrap: StrategyWrap = Arc::new(move |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        Box::new(Park {
            inner,
            armed: Arc::clone(&wrap_armed),
            parked: parked_tx.clone(),
            release: release_rx.clone(),
        })
    });
    Gate {
        wrap,
        armed,
        parked,
        release,
    }
}
