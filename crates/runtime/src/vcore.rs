//! Virtual heterogeneous machine: a pool of big/little *virtual* cores.
//!
//! The host's physical cores are assumed identical; heterogeneity is
//! injected by the work model (a task costs its big-core weight on a
//! virtual big core and its little-core weight on a virtual little core).
//! The machine hands cores to pipeline replicas with the *compact
//! placement* the paper uses: stages claim consecutive core ids of their
//! type, in pipeline order.

use amp_core::{CoreType, Resources, Solution};

/// One virtual core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VirtualCore {
    /// Dense id within the machine (big cores first, then little).
    pub id: usize,
    /// The core's type.
    pub kind: CoreType,
}

/// A fixed pool of virtual big and little cores.
#[derive(Clone, Debug)]
pub struct VirtualMachine {
    cores: Vec<VirtualCore>,
    resources: Resources,
}

impl VirtualMachine {
    /// Builds a machine with `resources.big` big and `resources.little`
    /// little cores.
    #[must_use]
    pub fn new(resources: Resources) -> Self {
        let mut cores = Vec::with_capacity(resources.total() as usize);
        for i in 0..resources.big {
            cores.push(VirtualCore {
                id: i as usize,
                kind: CoreType::Big,
            });
        }
        for i in 0..resources.little {
            cores.push(VirtualCore {
                id: (resources.big + i) as usize,
                kind: CoreType::Little,
            });
        }
        VirtualMachine { cores, resources }
    }

    /// The machine's resource pool.
    #[must_use]
    pub fn resources(&self) -> Resources {
        self.resources
    }

    /// All cores, big cores first.
    #[must_use]
    pub fn cores(&self) -> &[VirtualCore] {
        &self.cores
    }

    /// Compact placement of a solution's replicas: returns, per stage, the
    /// virtual cores assigned to its replicas (consecutive ids per type, in
    /// stage order). `None` if the solution needs more cores of some type
    /// than the machine has.
    #[must_use]
    pub fn place(&self, solution: &Solution) -> Option<Vec<Vec<VirtualCore>>> {
        let used = solution.used_cores();
        if used.big > self.resources.big || used.little > self.resources.little {
            return None;
        }
        let mut next_big = 0u64;
        let mut next_little = 0u64;
        let placement = solution
            .stages()
            .iter()
            .map(|stage| {
                (0..stage.cores)
                    .map(|_| match stage.core_type {
                        CoreType::Big => {
                            let id = next_big as usize;
                            next_big += 1;
                            VirtualCore {
                                id,
                                kind: CoreType::Big,
                            }
                        }
                        CoreType::Little => {
                            let id = (self.resources.big + next_little) as usize;
                            next_little += 1;
                            VirtualCore {
                                id,
                                kind: CoreType::Little,
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        Some(placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::Stage;

    #[test]
    fn machine_layout_is_big_first() {
        let m = VirtualMachine::new(Resources::new(2, 3));
        assert_eq!(m.cores().len(), 5);
        assert_eq!(m.cores()[0].kind, CoreType::Big);
        assert_eq!(m.cores()[1].kind, CoreType::Big);
        assert_eq!(m.cores()[2].kind, CoreType::Little);
        assert_eq!(m.cores()[4].id, 4);
    }

    #[test]
    fn placement_is_compact_and_typed() {
        let m = VirtualMachine::new(Resources::new(3, 2));
        let s = Solution::new(vec![
            Stage::new(0, 0, 2, CoreType::Big),
            Stage::new(1, 1, 1, CoreType::Little),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let p = m.place(&s).unwrap();
        assert_eq!(p[0].len(), 2);
        assert_eq!(p[0][0].id, 0);
        assert_eq!(p[0][1].id, 1);
        assert_eq!(p[1][0].id, 3); // first little core
        assert_eq!(p[1][0].kind, CoreType::Little);
        assert_eq!(p[2][0].id, 2); // third big core
    }

    #[test]
    fn placement_fails_when_oversubscribed() {
        let m = VirtualMachine::new(Resources::new(1, 0));
        let s = Solution::new(vec![Stage::new(0, 0, 2, CoreType::Big)]);
        assert!(m.place(&s).is_none());
        let s = Solution::new(vec![Stage::new(0, 0, 1, CoreType::Little)]);
        assert!(m.place(&s).is_none());
    }
}
