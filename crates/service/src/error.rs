//! Typed error codes for the scheduling service.
//!
//! Every failure a client can observe is one of these variants; each has a
//! stable machine-readable [`ServiceError::code`] (for logs, dashboards and
//! cross-language clients) and a human-readable `Display`.

/// Why a [`ScheduleRequest`](crate::ScheduleRequest) did not produce a
/// schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The request named a strategy that
    /// [`strategy_by_name`](amp_core::sched::strategy_by_name) does not
    /// know. Carries the offending name verbatim.
    UnknownStrategy {
        /// The unresolvable strategy name from the request.
        name: String,
    },
    /// The request's task chain had no tasks.
    EmptyChain,
    /// The request's resource pool had zero cores of both types.
    NoCores,
    /// The strategy (or every portfolio member that finished in time)
    /// returned no valid mapping for the instance.
    Infeasible,
    /// The engine's bounded request queue was full; the request was
    /// rejected without being enqueued (explicit backpressure).
    Overloaded,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The engine was configured with zero workers, so a blocking call
    /// could never be answered; it refuses up front instead of
    /// deadlocking.
    NoWorkers,
    /// The request's objective could not be interpreted — e.g. an energy
    /// objective whose target period string is malformed, zero or
    /// infinite (no finite throughput constraint to optimize under).
    InvalidObjective,
    /// A task weight was zero, or a core type's weight total does not fit
    /// in a `u64` (the chain model needs positive weights and exact
    /// prefix sums).
    InvalidWeights,
    /// The request would run HeRAD or `EnergyDP` on a DP table past
    /// [`MAX_TABLE_CELLS`](amp_core::sched::MAX_TABLE_CELLS) cells: the
    /// pool is too large for the chain's length.
    PoolTooLarge,
    /// An internal invariant was violated (a worker panicked, a channel
    /// closed unexpectedly, ...). Carries a diagnostic message.
    Internal(String),
}

impl ServiceError {
    /// Stable machine-readable code, one per variant.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::UnknownStrategy { .. } => "UNKNOWN_STRATEGY",
            ServiceError::EmptyChain => "EMPTY_CHAIN",
            ServiceError::NoCores => "NO_CORES",
            ServiceError::Infeasible => "INFEASIBLE",
            ServiceError::Overloaded => "OVERLOADED",
            ServiceError::ShuttingDown => "SHUTTING_DOWN",
            ServiceError::NoWorkers => "NO_WORKERS",
            ServiceError::InvalidObjective => "INVALID_OBJECTIVE",
            ServiceError::InvalidWeights => "INVALID_WEIGHTS",
            ServiceError::PoolTooLarge => "POOL_TOO_LARGE",
            ServiceError::Internal(_) => "INTERNAL",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownStrategy { name } => {
                write!(f, "unknown strategy {name:?}")
            }
            ServiceError::EmptyChain => write!(f, "task chain is empty"),
            ServiceError::NoCores => write!(f, "resource pool has no cores"),
            ServiceError::Infeasible => {
                write!(f, "no strategy produced a valid mapping")
            }
            ServiceError::Overloaded => {
                write!(f, "request queue full; try again later")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::NoWorkers => {
                write!(
                    f,
                    "engine has no workers; a blocking call would never return"
                )
            }
            ServiceError::InvalidObjective => {
                write!(
                    f,
                    "objective is malformed (energy target must be a finite nonzero period)"
                )
            }
            ServiceError::InvalidWeights => {
                write!(
                    f,
                    "task weights must be positive and sum to at most 2^64 - 1 per core type"
                )
            }
            ServiceError::PoolTooLarge => write!(
                f,
                "resource pool too large: the DP table would pass {} cells",
                amp_core::sched::MAX_TABLE_CELLS
            ),
            ServiceError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_distinct() {
        let all = [
            ServiceError::UnknownStrategy {
                name: "x".to_string(),
            },
            ServiceError::EmptyChain,
            ServiceError::NoCores,
            ServiceError::Infeasible,
            ServiceError::Overloaded,
            ServiceError::ShuttingDown,
            ServiceError::NoWorkers,
            ServiceError::InvalidObjective,
            ServiceError::PoolTooLarge,
            ServiceError::Internal("boom".to_string()),
        ];
        let codes: Vec<&str> = all.iter().map(ServiceError::code).collect();
        assert_eq!(
            codes,
            [
                "UNKNOWN_STRATEGY",
                "EMPTY_CHAIN",
                "NO_CORES",
                "INFEASIBLE",
                "OVERLOADED",
                "SHUTTING_DOWN",
                "NO_WORKERS",
                "INVALID_OBJECTIVE",
                "POOL_TOO_LARGE",
                "INTERNAL"
            ]
        );
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_mentions_the_offending_name() {
        let e = ServiceError::UnknownStrategy {
            name: "HERAD".to_string(),
        };
        assert!(e.to_string().contains("HERAD"));
    }
}
