//! Bit- and packet-error rates for the 802.15.4 2.4 GHz PHY.
//!
//! The 2.4 GHz PHY is O-QPSK with 16-ary orthogonal DSSS (32-chip
//! sequences, 4 bits/symbol, 250 kbps). The standard's own analytical
//! BER expression (IEEE 802.15.4-2006 Annex E, also used by
//! Zuniga–Krishnamachari) is
//!
//! ```text
//! BER = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))
//! ```
//!
//! with `γ` the *linear* SNR. A packet of `n` bytes then survives with
//! probability `(1 − BER)^(8·n)`.

/// Binomial coefficients C(16, k) for k = 0..=16.
const C16: [f64; 17] = [
    1.0, 16.0, 120.0, 560.0, 1820.0, 4368.0, 8008.0, 11440.0, 12870.0, 11440.0, 8008.0, 4368.0,
    1820.0, 560.0, 120.0, 16.0, 1.0,
];

/// SNR (dB) above which every term of the BER sum underflows to ±0.0.
///
/// The largest-magnitude term is `exp(20·γ·(1/2 − 1)) = exp(−10·γ)`;
/// `exp(x)` rounds to zero for `x < ln(2⁻¹⁰⁷⁵) ≈ −745.14`, i.e. for
/// `γ > 74.52` (18.73 dB). At 18.8 dB the exponent is already −758, so
/// all fifteen terms are exact zeros, their alternating sum is `+0.0`,
/// and the scaled, clamped result is `+0.0` — bit-identical to running
/// the loop (`high_snr_shortcut_is_bit_identical` pins this).
const BER_UNDERFLOW_SNR_DB: f64 = 18.8;

/// Bit error rate of the 802.15.4 O-QPSK DSSS PHY at `snr_db`.
pub fn ber_oqpsk(snr_db: f64) -> f64 {
    if snr_db >= BER_UNDERFLOW_SNR_DB {
        return 0.0;
    }
    let gamma = 10f64.powf(snr_db / 10.0);
    let mut acc = 0.0;
    for (k, &c16k) in C16.iter().enumerate().take(17).skip(2) {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        acc += sign * c16k * (20.0 * gamma * (1.0 / k as f64 - 1.0)).exp();
    }
    ((8.0 / 15.0) * (1.0 / 16.0) * acc).clamp(0.0, 0.5)
}

/// Probability that a frame of `frame_bytes` bytes (PHY payload incl.
/// headers and CRC) is corrupted at `snr_db`.
pub fn packet_error_rate(snr_db: f64, frame_bytes: usize) -> f64 {
    let ber = ber_oqpsk(snr_db);
    if ber == 0.0 {
        // `(1 − 0)^bits` is exactly 1.0 (IEEE pow(1, y) = 1), so the
        // subtraction below would return +0.0; skip the powf.
        return 0.0;
    }
    let bits = (frame_bytes * 8) as f64;
    1.0 - (1.0 - ber).powf(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ber_limits() {
        // Deep fade: BER approaches 1/2; strong signal: effectively 0.
        assert!(ber_oqpsk(-20.0) > 0.3);
        assert!(ber_oqpsk(20.0) < 1e-12);
    }

    #[test]
    fn ber_monotone_decreasing() {
        let mut prev = 1.0;
        let mut snr = -15.0;
        while snr <= 15.0 {
            let b = ber_oqpsk(snr);
            assert!(b <= prev + 1e-15, "snr {snr}: {b} > {prev}");
            prev = b;
            snr += 0.25;
        }
    }

    #[test]
    fn transitional_region_position() {
        // The waterfall for ~50-byte frames sits in the −3…+2 dB SNR
        // range: essentially no packets below −3 dB, essentially all
        // above +2 dB.
        assert!(packet_error_rate(-3.0, 50) > 0.99);
        assert!(packet_error_rate(2.0, 50) < 0.01);
    }

    #[test]
    fn per_increases_with_length() {
        let snr = 2.0;
        let short = packet_error_rate(snr, 20);
        let long = packet_error_rate(snr, 100);
        assert!(long > short, "short {short}, long {long}");
    }

    #[test]
    fn per_bounds() {
        for snr in [-30.0, -5.0, 0.0, 3.0, 10.0, 40.0] {
            for len in [1usize, 32, 64, 127] {
                let p = packet_error_rate(snr, len);
                assert!((0.0..=1.0).contains(&p), "snr {snr} len {len}: {p}");
            }
        }
    }

    /// Reference copy of the BER sum without the underflow shortcut.
    fn ber_oqpsk_reference(snr_db: f64) -> f64 {
        let gamma = 10f64.powf(snr_db / 10.0);
        let mut acc = 0.0;
        for (k, &c16k) in C16.iter().enumerate().take(17).skip(2) {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            acc += sign * c16k * (20.0 * gamma * (1.0 / k as f64 - 1.0)).exp();
        }
        ((8.0 / 15.0) * (1.0 / 16.0) * acc).clamp(0.0, 0.5)
    }

    #[test]
    fn high_snr_shortcut_is_bit_identical() {
        // Sweep densely across the shortcut threshold (and far past it):
        // the shortcut must agree with the full sum to the bit, sign of
        // zero included.
        let mut snr = 15.0;
        while snr <= 60.0 {
            let fast = ber_oqpsk(snr);
            let full = ber_oqpsk_reference(snr);
            assert_eq!(fast.to_bits(), full.to_bits(), "snr {snr}");
            for len in [5usize, 40, 127] {
                let per = packet_error_rate(snr, len);
                let per_ref = 1.0 - (1.0 - full).powf((len * 8) as f64);
                assert_eq!(per.to_bits(), per_ref.to_bits(), "snr {snr} len {len}");
            }
            snr += 0.01;
        }
        // The threshold itself sits where the largest term underflows.
        assert_eq!(ber_oqpsk_reference(BER_UNDERFLOW_SNR_DB), 0.0);
    }
}
