//! The paper's Table III: measured per-task latencies of the DVB-S2
//! receiver on the two evaluation platforms, plus the Table II resource
//! configurations.
//!
//! Weights are stored in tenths of microseconds (the table reports one
//! decimal), so all scheduling arithmetic stays exact; multiply by
//! [`WEIGHT_UNIT_US`] to get microseconds.

use crate::params::PAPER_INFO_BITS_PER_FRAME;
use amp_core::{Resources, Task, TaskChain};

/// Microseconds per profile weight unit (weights are 0.1 µs each).
pub const WEIGHT_UNIT_US: f64 = 0.1;

/// The two platforms of the paper's real-world SDR experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Apple Mac Studio, M1 Ultra: 16 P-cores (big) + 4 E-cores (little),
    /// interframe level 4.
    MacStudio,
    /// Minisforum AtomMan X7 Ti, Intel Ultra 9 185H: 6 P-cores + 8
    /// E-cores (2 LP-E cores unused), interframe level 8.
    X7Ti,
}

impl Platform {
    /// Display name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Platform::MacStudio => "Mac Studio",
            Platform::X7Ti => "X7 Ti",
        }
    }

    /// The full core complement `R = (b, l)`.
    #[must_use]
    pub fn full_resources(self) -> Resources {
        match self {
            Platform::MacStudio => Resources::new(16, 4),
            Platform::X7Ti => Resources::new(6, 8),
        }
    }

    /// Half the cores, as in the paper's second configuration per platform.
    #[must_use]
    pub fn half_resources(self) -> Resources {
        match self {
            Platform::MacStudio => Resources::new(8, 2),
            Platform::X7Ti => Resources::new(3, 4),
        }
    }

    /// The interframe level (frames processed together per task firing):
    /// converts pipeline periods to frame rates.
    #[must_use]
    pub fn interframe(self) -> u64 {
        match self {
            Platform::MacStudio => 4,
            Platform::X7Ti => 8,
        }
    }

    /// Frames per second for a pipeline period given in weight units.
    #[must_use]
    pub fn fps_for_period_units(self, period_units: f64) -> f64 {
        let period_us = period_units * WEIGHT_UNIT_US;
        self.interframe() as f64 * 1e6 / period_us
    }

    /// Information throughput in Mb/s for a period in weight units
    /// (paper frame: K = 14232 info bits).
    #[must_use]
    pub fn mbps_for_period_units(self, period_units: f64) -> f64 {
        self.fps_for_period_units(period_units) * PAPER_INFO_BITS_PER_FRAME as f64 / 1e6
    }
}

/// Raw Table III rows: (name, replicable, Mac B, Mac L, X7 B, X7 L), in
/// tenths of microseconds.
const TABLE_III: [(&str, bool, u64, u64, u64, u64); 23] = [
    ("Radio -- receive", false, 523, 2483, 1317, 1332),
    ("Multiplier AGC -- imultiply", false, 752, 1499, 1383, 3181),
    (
        "Sync. Freq. Coarse -- synchronize",
        false,
        964,
        4966,
        1137,
        4290,
    ),
    (
        "Filter Matched -- filter (part 1)",
        false,
        3189,
        9029,
        3348,
        7119,
    ),
    (
        "Filter Matched -- filter (part 2)",
        false,
        3151,
        8832,
        3293,
        7126,
    ),
    (
        "Sync. Timing -- synchronize",
        false,
        9506,
        14689,
        13419,
        23871,
    ),
    ("Sync. Timing -- extract", false, 555, 1060, 587, 1351),
    (
        "Multiplier AGC -- imultiply (2)",
        false,
        371,
        754,
        635,
        1574,
    ),
    (
        "Sync. Frame -- synchronize (part 1)",
        false,
        3610,
        10647,
        3659,
        8481,
    ),
    (
        "Sync. Frame -- synchronize (part 2)",
        false,
        529,
        1691,
        811,
        1979,
    ),
    ("Scrambler Symbol -- descramble", true, 160, 610, 251, 659),
    (
        "Sync. Freq. Fine L&R -- synchronize",
        false,
        505,
        2471,
        543,
        2032,
    ),
    (
        "Sync. Freq. Fine P/F -- synchronize",
        true,
        992,
        5978,
        2538,
        3562,
    ),
    ("Framer PLH -- remove", true, 234, 651, 474, 877),
    ("Noise Estimator -- estimate", true, 405, 654, 324, 654),
    ("Modem QPSK -- demodulate", true, 22575, 48386, 21231, 57424),
    ("Interleaver -- deinterleave", true, 211, 584, 293, 476),
    ("Decoder LDPC -- decode SIHO", true, 1532, 5067, 2397, 10244),
    (
        "Decoder BCH -- decode HIHO",
        true,
        33399,
        73035,
        62090,
        81662,
    ),
    (
        "Scrambler Binary -- descramble",
        true,
        1917,
        4649,
        5590,
        6218,
    ),
    ("Sink Binary File -- send", false, 95, 333, 346, 756),
    ("Source -- generate", false, 40, 136, 169, 234),
    ("Monitor -- check errors", true, 95, 210, 92, 205),
];

/// The DVB-S2 receiver chain with the platform's profiled weights
/// (tenths of microseconds).
#[must_use]
pub fn profiled_chain(platform: Platform) -> TaskChain {
    let tasks = TABLE_III
        .iter()
        .map(|&(name, replicable, mac_b, mac_l, x7_b, x7_l)| {
            let (big, little) = match platform {
                Platform::MacStudio => (mac_b, mac_l),
                Platform::X7Ti => (x7_b, x7_l),
            };
            Task {
                name: name.to_string(),
                weight_big: big,
                weight_little: little,
                replicable,
            }
        })
        .collect();
    TaskChain::new(tasks)
}

/// One Table II configuration: a platform and a core budget.
#[derive(Clone, Copy, Debug)]
pub struct PlatformConfig {
    /// The platform whose profile to schedule against.
    pub platform: Platform,
    /// Cores made available to the scheduler.
    pub resources: Resources,
}

/// The four configurations of Table II, in the paper's row order.
#[must_use]
pub fn table2_configs() -> [PlatformConfig; 4] {
    [
        PlatformConfig {
            platform: Platform::MacStudio,
            resources: Platform::MacStudio.half_resources(),
        },
        PlatformConfig {
            platform: Platform::MacStudio,
            resources: Platform::MacStudio.full_resources(),
        },
        PlatformConfig {
            platform: Platform::X7Ti,
            resources: Platform::X7Ti.half_resources(),
        },
        PlatformConfig {
            platform: Platform::X7Ti,
            resources: Platform::X7Ti.full_resources(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::CoreType;

    #[test]
    fn totals_match_table_iii() {
        // The paper's printed totals (8530.8 / 19841.3 / 12592.5 / 22530.7)
        // differ from the sums of the printed rows by up to 0.2 µs —
        // rounding in the paper's total line. These are the exact row sums.
        let mac = profiled_chain(Platform::MacStudio);
        assert_eq!(mac.len(), 23);
        assert_eq!(mac.total(CoreType::Big), 85310); // paper prints 8530.8 µs
        assert_eq!(mac.total(CoreType::Little), 198414); // paper: 19841.3 µs
        let x7 = profiled_chain(Platform::X7Ti);
        assert_eq!(x7.total(CoreType::Big), 125927); // paper: 12592.5 µs
        assert_eq!(x7.total(CoreType::Little), 225307); // paper: 22530.7 µs
    }

    #[test]
    fn slowest_tasks_match_the_papers_highlights() {
        // Table III highlights: slowest sequential = Sync Timing (τ6),
        // slowest replicable = BCH (τ19) then QPSK demod (τ16).
        for p in [Platform::MacStudio, Platform::X7Ti] {
            let chain = profiled_chain(p);
            let slow_seq = chain
                .tasks()
                .iter()
                .filter(|t| !t.replicable)
                .max_by_key(|t| t.weight_big)
                .unwrap();
            assert!(slow_seq.name.contains("Sync. Timing -- synchronize"));
            let slow_rep = chain
                .tasks()
                .iter()
                .filter(|t| t.replicable)
                .max_by_key(|t| t.weight_big)
                .unwrap();
            assert!(slow_rep.name.contains("BCH"));
        }
    }

    #[test]
    fn little_latency_is_never_faster_on_these_profiles() {
        for p in [Platform::MacStudio, Platform::X7Ti] {
            for t in profiled_chain(p).tasks() {
                assert!(
                    t.weight_little >= t.weight_big,
                    "{} on {:?}: little {} < big {}",
                    t.name,
                    p,
                    t.weight_little,
                    t.weight_big
                );
            }
        }
    }

    #[test]
    fn throughput_conversions_match_table_ii() {
        // S1 (HeRAD, Mac half): period 1128.7 µs -> 3544 FPS, 50.4 Mb/s.
        let fps = Platform::MacStudio.fps_for_period_units(11287.0);
        assert!((fps - 3544.0).abs() < 1.0, "fps {fps}");
        let mbps = Platform::MacStudio.mbps_for_period_units(11287.0);
        assert!((mbps - 50.4).abs() < 0.1, "mbps {mbps}");
        // S11 (HeRAD, X7 half): period 2722.1 µs -> 2939 FPS, 41.8 Mb/s.
        let fps = Platform::X7Ti.fps_for_period_units(27221.0);
        assert!((fps - 2939.0).abs() < 1.0, "fps {fps}");
        let mbps = Platform::X7Ti.mbps_for_period_units(27221.0);
        assert!((mbps - 41.8).abs() < 0.1, "mbps {mbps}");
    }

    #[test]
    fn configurations_match_the_paper() {
        let cfgs = table2_configs();
        assert_eq!(cfgs[0].resources, Resources::new(8, 2));
        assert_eq!(cfgs[1].resources, Resources::new(16, 4));
        assert_eq!(cfgs[2].resources, Resources::new(3, 4));
        assert_eq!(cfgs[3].resources, Resources::new(6, 8));
        assert_eq!(Platform::MacStudio.interframe(), 4);
        assert_eq!(Platform::X7Ti.interframe(), 8);
        assert_eq!(Platform::MacStudio.name(), "Mac Studio");
    }
}
