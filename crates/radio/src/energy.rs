//! CC2420 energy accounting.
//!
//! LiteView's stated design goals include **efficiency** — "resource
//! constraints (on both CPU and memory)… makes it critical to use
//! resources efficiently… measured by the footprint of LiteView and its
//! communication overhead". On a battery-powered mote, communication
//! overhead *is* energy, so the simulator accounts for it with the
//! CC2420 datasheet's current draws (at a nominal 3.0 V supply):
//!
//! * receive / listen: 18.8 mA (the radio draws this whenever it is not
//!   transmitting — idle listening, the dominant cost of an always-on
//!   MAC like LiteOS's);
//! * transmit: 7.45–17.4 mA depending on `PA_LEVEL` (interpolated
//!   between the datasheet's calibration points).

use crate::power::PowerLevel;
use lv_sim::SimDuration;
use serde::Serialize;

/// Nominal supply voltage, volts.
pub const SUPPLY_VOLTS: f64 = 3.0;
/// RX / idle-listen current, amperes.
pub const RX_CURRENT_A: f64 = 18.8e-3;

/// Datasheet TX current calibration points: `(PA_LEVEL, amperes)`.
const TX_CURRENT: [(u8, f64); 8] = [
    (3, 7.45e-3),
    (7, 8.5e-3),
    (11, 9.9e-3),
    (15, 11.2e-3),
    (19, 12.5e-3),
    (23, 13.9e-3),
    (27, 15.2e-3),
    (31, 17.4e-3),
];

/// TX current draw at a power level, interpolated like the dBm table.
pub fn tx_current_a(level: PowerLevel) -> f64 {
    let l = level.level();
    let mut lo = TX_CURRENT[0];
    let mut hi = TX_CURRENT[TX_CURRENT.len() - 1];
    for w in TX_CURRENT.windows(2) {
        if l >= w[0].0 && l <= w[1].0 {
            lo = w[0];
            hi = w[1];
            break;
        }
    }
    if l <= lo.0 || lo.0 == hi.0 {
        return lo.1;
    }
    if l >= hi.0 {
        return hi.1;
    }
    let t = (l - lo.0) as f64 / (hi.0 - lo.0) as f64;
    lo.1 + t * (hi.1 - lo.1)
}

/// A node's accumulated radio-energy ledger, in joules.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct EnergyLedger {
    /// Energy spent radiating frames.
    pub tx_joules: f64,
    /// Energy spent actively receiving frames.
    pub rx_joules: f64,
    /// Accumulated transmit airtime (for listen-time derivation).
    pub tx_seconds: f64,
    /// Accumulated receive airtime.
    pub rx_seconds: f64,
}

impl EnergyLedger {
    /// Charge a transmission of `airtime` at `level`.
    pub fn charge_tx(&mut self, airtime: SimDuration, level: PowerLevel) {
        let secs = airtime.as_secs_f64();
        self.tx_seconds += secs;
        self.tx_joules += secs * tx_current_a(level) * SUPPLY_VOLTS;
    }

    /// Charge a frame reception of `airtime`.
    pub fn charge_rx(&mut self, airtime: SimDuration) {
        let secs = airtime.as_secs_f64();
        self.rx_seconds += secs;
        self.rx_joules += secs * RX_CURRENT_A * SUPPLY_VOLTS;
    }

    /// Energy attributable to *communication activity* (TX + RX), the
    /// quantity command-overhead comparisons use.
    pub fn active_joules(&self) -> f64 {
        self.tx_joules + self.rx_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_current_matches_datasheet_points() {
        for &(level, amps) in &TX_CURRENT {
            let p = PowerLevel::new(level).unwrap();
            assert!((tx_current_a(p) - amps).abs() < 1e-12, "level {level}");
        }
    }

    #[test]
    fn tx_current_monotone_in_level() {
        let mut prev = 0.0;
        for l in 3..=31u8 {
            let a = tx_current_a(PowerLevel::new(l).unwrap());
            assert!(a >= prev, "level {l}");
            prev = a;
        }
    }

    #[test]
    fn full_power_tx_costs_more_than_rx() {
        // 17.4 mA TX at level 31 vs 18.8 mA RX: RX actually draws MORE
        // current than TX on the CC2420 — the famous reason idle
        // listening dominates WSN energy budgets.
        assert!(tx_current_a(PowerLevel::MAX) < RX_CURRENT_A);
    }

    #[test]
    fn ledger_accumulates() {
        let mut e = EnergyLedger::default();
        e.charge_tx(SimDuration::from_millis(2), PowerLevel::MAX);
        e.charge_rx(SimDuration::from_millis(2));
        // 2 ms at 17.4 mA, 3 V = 104.4 µJ; RX 2 ms at 18.8 mA = 112.8 µJ.
        assert!((e.tx_joules - 104.4e-6).abs() < 1e-9);
        assert!((e.rx_joules - 112.8e-6).abs() < 1e-9);
        assert!((e.active_joules() - 217.2e-6).abs() < 1e-9);
    }

    #[test]
    fn lower_power_cheaper_tx() {
        let mut hi = EnergyLedger::default();
        let mut lo = EnergyLedger::default();
        hi.charge_tx(SimDuration::from_millis(1), PowerLevel::MAX);
        lo.charge_tx(SimDuration::from_millis(1), PowerLevel::MIN);
        assert!(lo.tx_joules < hi.tx_joules * 0.5);
    }
}
