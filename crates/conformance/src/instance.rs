//! The conformance test instance: one task chain plus one resource pool,
//! with a stable name for corpus provenance.
//!
//! [`Instance`] is the unit every layer of the harness exchanges: the
//! generators produce it, the checks consume it, the shrinker minimizes
//! it and the corpus stores it as JSON (see [`crate::json`]).

use amp_core::{Resources, Task, TaskChain};
use std::fmt;

/// One task of an instance — the serializable mirror of [`amp_core::Task`]
/// without the display name, so equal instances compare and serialize
/// identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskDef {
    /// Computation weight on a big core (must be positive).
    pub weight_big: u64,
    /// Computation weight on a little core (must be positive).
    pub weight_little: u64,
    /// `true` when the task is stateless and may be replicated.
    pub replicable: bool,
}

impl TaskDef {
    /// Builds a task definition.
    #[must_use]
    pub fn new(weight_big: u64, weight_little: u64, replicable: bool) -> Self {
        TaskDef {
            weight_big,
            weight_little,
            replicable,
        }
    }
}

/// A scheduling instance under test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Provenance label: `"seed-123"` for fuzzed instances, a descriptive
    /// slug for corpus entries. Not part of the instance semantics.
    pub name: String,
    /// The task chain, in pipeline order. Never empty.
    pub tasks: Vec<TaskDef>,
    /// Number of big cores.
    pub big: u64,
    /// Number of little cores.
    pub little: u64,
}

impl Instance {
    /// Builds an instance.
    ///
    /// # Panics
    /// Panics if `tasks` is empty — an empty chain is rejected by
    /// [`TaskChain::new`] and has no meaning as a conformance input.
    #[must_use]
    pub fn new(name: impl Into<String>, tasks: Vec<TaskDef>, big: u64, little: u64) -> Self {
        assert!(!tasks.is_empty(), "conformance instances need tasks");
        Instance {
            name: name.into(),
            tasks,
            big,
            little,
        }
    }

    /// Captures a core-domain chain + pool as an instance.
    #[must_use]
    pub fn from_chain(name: impl Into<String>, chain: &TaskChain, resources: Resources) -> Self {
        Instance::new(
            name,
            chain
                .tasks()
                .iter()
                .map(|t| TaskDef::new(t.weight_big, t.weight_little, t.replicable))
                .collect(),
            resources.big,
            resources.little,
        )
    }

    /// The core-domain task chain.
    ///
    /// # Panics
    /// Panics if any task has a zero weight (the chain model requires
    /// positive latencies); well-formed generators and corpus files never
    /// produce such tasks.
    #[must_use]
    pub fn chain(&self) -> TaskChain {
        TaskChain::new(
            self.tasks
                .iter()
                .map(|t| Task::new(t.weight_big, t.weight_little, t.replicable))
                .collect(),
        )
    }

    /// The core-domain resource pool.
    #[must_use]
    pub fn resources(&self) -> Resources {
        Resources::new(self.big, self.little)
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false`: instances are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A compact one-line summary used in mismatch reports:
    /// `name: [B3/L6r, B2/L4] on (2B, 1L)`.
    #[must_use]
    pub fn summary(&self) -> String {
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .map(|t| {
                format!(
                    "B{}/L{}{}",
                    t.weight_big,
                    t.weight_little,
                    if t.replicable { "r" } else { "" }
                )
            })
            .collect();
        format!(
            "{}: [{}] on ({}B, {}L)",
            self.name,
            tasks.join(", "),
            self.big,
            self.little
        )
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_core_domain() {
        let inst = Instance::new(
            "t",
            vec![TaskDef::new(3, 6, false), TaskDef::new(2, 4, true)],
            2,
            1,
        );
        let chain = inst.chain();
        let back = Instance::from_chain("t", &chain, inst.resources());
        assert_eq!(back, inst);
        assert_eq!(chain.len(), 2);
        assert_eq!(inst.resources(), Resources::new(2, 1));
    }

    #[test]
    fn summary_is_compact() {
        let inst = Instance::new("x", vec![TaskDef::new(3, 6, true)], 1, 0);
        assert_eq!(inst.summary(), "x: [B3/L6r] on (1B, 0L)");
    }

    #[test]
    #[should_panic(expected = "need tasks")]
    fn empty_instances_are_rejected() {
        let _ = Instance::new("bad", vec![], 1, 1);
    }
}
