//! Frame parameters of the reduced-scale functional chain.
//!
//! The paper's DVB-S2 configuration is a normal FECFRAME (N = 16200
//! would be the *short* frame; they use K_bch = 14232, R = 8/9, i.e. the
//! short FECFRAME family) with LDPC over 16k bits and BCH over GF(2^14+).
//! The functional chain here keeps every block and the 8/9 rate structure
//! at a reduced size so tests and examples run in milliseconds:
//!
//! * LDPC: N = 1800, K = 1600 (IRA staircase parity, like DVB-S2);
//! * BCH: t = 3 over GF(2^11), shortened from (2047, 2014) to
//!   (1600, 1567);
//! * QPSK: 900 data symbols per frame, 90-symbol PL header;
//! * oversampling ×2 with a root-raised-cosine (rolloff 0.2) shaping pair.
//!
//! Throughput conversions for Table II keep the *paper's* frame size
//! (K_bch = 14232 info bits) because those experiments use the paper's
//! latency profile, not the reduced chain.

/// Sizes of one reduced-scale frame at each point of the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameParams {
    /// Information bits per frame (BBFRAME payload) — BCH message length.
    pub k_info: usize,
    /// BCH codeword length = LDPC message length.
    pub k_ldpc: usize,
    /// LDPC codeword length (coded bits per frame).
    pub n_ldpc: usize,
    /// BCH error-correction capability (errors per frame).
    pub bch_t: usize,
    /// Galois field order exponent for BCH (GF(2^m)).
    pub bch_m: usize,
    /// Data symbols per frame (QPSK: 2 bits per symbol).
    pub data_symbols: usize,
    /// PL header symbols prepended to each frame.
    pub plh_symbols: usize,
    /// Samples per symbol after pulse shaping.
    pub sps: usize,
    /// LDPC decoder iterations (paper: NMS, 10 iterations, early stop).
    pub ldpc_iters: usize,
}

impl FrameParams {
    /// The reduced-scale configuration used by the functional chain.
    #[must_use]
    pub fn reduced() -> Self {
        FrameParams {
            k_info: 1567,
            k_ldpc: 1600,
            n_ldpc: 1800,
            bch_t: 3,
            bch_m: 11,
            data_symbols: 900,
            plh_symbols: 90,
            sps: 2,
            ldpc_iters: 10,
        }
    }

    /// Total symbols per PLFRAME (header + data).
    #[must_use]
    pub fn frame_symbols(&self) -> usize {
        self.plh_symbols + self.data_symbols
    }

    /// Samples per PLFRAME after pulse shaping.
    #[must_use]
    pub fn frame_samples(&self) -> usize {
        self.frame_symbols() * self.sps
    }

    /// Checks the internal consistency of the sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ldpc != 2 * self.data_symbols {
            return Err(format!(
                "QPSK carries 2 bits/symbol: n_ldpc {} != 2 x {}",
                self.n_ldpc, self.data_symbols
            ));
        }
        if self.k_info + self.bch_t * self.bch_m != self.k_ldpc {
            return Err(format!(
                "BCH parity mismatch: {} + {}x{} != {}",
                self.k_info, self.bch_t, self.bch_m, self.k_ldpc
            ));
        }
        if self.k_ldpc >= self.n_ldpc {
            return Err("LDPC needs parity bits".into());
        }
        if (1 << self.bch_m) <= self.k_ldpc {
            return Err("BCH field too small for the codeword".into());
        }
        Ok(())
    }

    /// Code rate of the concatenated FEC (`k_info / n_ldpc`).
    #[must_use]
    pub fn code_rate(&self) -> f64 {
        self.k_info as f64 / self.n_ldpc as f64
    }
}

/// Information bits per frame in the *paper's* configuration (K_bch of the
/// DVB-S2 short FECFRAME at rate 8/9), used for Mb/s conversions in the
/// Table II reproduction.
pub const PAPER_INFO_BITS_PER_FRAME: u64 = 14232;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_params_are_consistent() {
        let p = FrameParams::reduced();
        p.validate().unwrap();
        assert_eq!(p.frame_symbols(), 990);
        assert_eq!(p.frame_samples(), 1980);
        // ~8/9 overall structure like the paper's MODCOD
        assert!((p.code_rate() - 8.0 / 9.0).abs() < 0.025);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut p = FrameParams::reduced();
        p.data_symbols = 800;
        assert!(p.validate().is_err());
        let mut p = FrameParams::reduced();
        p.k_info = 1000;
        assert!(p.validate().is_err());
        let mut p = FrameParams::reduced();
        p.k_ldpc = p.n_ldpc;
        assert!(p.validate().is_err());
        let mut p = FrameParams::reduced();
        p.bch_m = 8;
        assert!(p.validate().is_err());
    }
}
