//! Lightweight metric primitives used by every layer.
//!
//! The evaluation reproduces packet *counts* (Fig. 7, one-hop ping
//! overhead) and *delay distributions* (Fig. 5, the 500 ms response
//! window), so the engine provides named counters, a fixed-bucket
//! histogram, and a running summary of scalar samples.

use crate::time::SimDuration;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Every counter the simulation keeps, one id per name.
///
/// The namespace is closed: a count is one array add on an id, and the
/// string name only materializes at report time. Variants are declared
/// in lexicographic *name* order, so iterating [`CounterId::ALL`] walks
/// the counters sorted by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CounterId {
    /// `dyn.channel_noise`
    DynChannelNoise,
    /// `dyn.invalid`
    DynInvalid,
    /// `dyn.link_override`
    DynLinkOverride,
    /// `dyn.node_down`
    DynNodeDown,
    /// `dyn.node_up`
    DynNodeUp,
    /// `dyn.reconfig`
    DynReconfig,
    /// `kernel.arena_miss`
    KernelArenaMiss,
    /// `mac.ack_timeout`
    MacAckTimeout,
    /// `mac.anomaly`
    MacAnomaly,
    /// `mac.cca_busy`
    MacCcaBusy,
    /// `mac.cca_clear`
    MacCcaClear,
    /// `mac.delivered`
    MacDelivered,
    /// `mac.failed.ChannelAccessFailure`
    MacFailedChannelAccess,
    /// `mac.failed.NoAck`
    MacFailedNoAck,
    /// `mac.queue_drop`
    MacQueueDrop,
    /// `mac.retries`
    MacRetries,
    /// `mac.submit`
    MacSubmit,
    /// `mac.tx_attempt`
    MacTxAttempt,
    /// `net.beacon_rx`
    NetBeaconRx,
    /// `net.deliver`
    NetDeliver,
    /// `net.drop.Duplicate`
    NetDropDuplicate,
    /// `net.drop.NoListener`
    NetDropNoListener,
    /// `net.drop.NoRoute`
    NetDropNoRoute,
    /// `net.drop.TtlExpired`
    NetDropTtlExpired,
    /// `net.forward`
    NetForward,
    /// `net.neighbor_blacklisted`
    NetNeighborBlacklisted,
    /// `net.neighbor_expired`
    NetNeighborExpired,
    /// `net.neighbor_new`
    NetNeighborNew,
    /// `net.originate`
    NetOriginate,
    /// `net.queue_drop`
    NetQueueDrop,
    /// `padding.appended`
    PaddingAppended,
    /// `padding.capped`
    PaddingCapped,
    /// `rx.beacon`
    RxBeacon,
    /// `rx.corrupt`
    RxCorrupt,
    /// `rx.frames`
    RxFrames,
    /// `rx.garbled`
    RxGarbled,
    /// `rx.halfduplex_miss`
    RxHalfduplexMiss,
    /// `sys.blacklist_unknown`
    SysBlacklistUnknown,
    /// `sys.spawn_fail`
    SysSpawnFail,
    /// `sys.subscribe_conflict`
    SysSubscribeConflict,
    /// `tx.ack`
    TxAck,
    /// `tx.beacon`
    TxBeacon,
    /// `tx.bytes`
    TxBytes,
    /// `tx.data`
    TxData,
}

impl CounterId {
    /// Number of counters.
    pub const COUNT: usize = 44;

    /// Every counter, in lexicographic name order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::DynChannelNoise,
        CounterId::DynInvalid,
        CounterId::DynLinkOverride,
        CounterId::DynNodeDown,
        CounterId::DynNodeUp,
        CounterId::DynReconfig,
        CounterId::KernelArenaMiss,
        CounterId::MacAckTimeout,
        CounterId::MacAnomaly,
        CounterId::MacCcaBusy,
        CounterId::MacCcaClear,
        CounterId::MacDelivered,
        CounterId::MacFailedChannelAccess,
        CounterId::MacFailedNoAck,
        CounterId::MacQueueDrop,
        CounterId::MacRetries,
        CounterId::MacSubmit,
        CounterId::MacTxAttempt,
        CounterId::NetBeaconRx,
        CounterId::NetDeliver,
        CounterId::NetDropDuplicate,
        CounterId::NetDropNoListener,
        CounterId::NetDropNoRoute,
        CounterId::NetDropTtlExpired,
        CounterId::NetForward,
        CounterId::NetNeighborBlacklisted,
        CounterId::NetNeighborExpired,
        CounterId::NetNeighborNew,
        CounterId::NetOriginate,
        CounterId::NetQueueDrop,
        CounterId::PaddingAppended,
        CounterId::PaddingCapped,
        CounterId::RxBeacon,
        CounterId::RxCorrupt,
        CounterId::RxFrames,
        CounterId::RxGarbled,
        CounterId::RxHalfduplexMiss,
        CounterId::SysBlacklistUnknown,
        CounterId::SysSpawnFail,
        CounterId::SysSubscribeConflict,
        CounterId::TxAck,
        CounterId::TxBeacon,
        CounterId::TxBytes,
        CounterId::TxData,
    ];

    /// The report-time name of this counter.
    pub const fn name(self) -> &'static str {
        match self {
            CounterId::DynChannelNoise => "dyn.channel_noise",
            CounterId::DynInvalid => "dyn.invalid",
            CounterId::DynLinkOverride => "dyn.link_override",
            CounterId::DynNodeDown => "dyn.node_down",
            CounterId::DynNodeUp => "dyn.node_up",
            CounterId::DynReconfig => "dyn.reconfig",
            CounterId::KernelArenaMiss => "kernel.arena_miss",
            CounterId::MacAckTimeout => "mac.ack_timeout",
            CounterId::MacAnomaly => "mac.anomaly",
            CounterId::MacCcaBusy => "mac.cca_busy",
            CounterId::MacCcaClear => "mac.cca_clear",
            CounterId::MacDelivered => "mac.delivered",
            CounterId::MacFailedChannelAccess => "mac.failed.ChannelAccessFailure",
            CounterId::MacFailedNoAck => "mac.failed.NoAck",
            CounterId::MacQueueDrop => "mac.queue_drop",
            CounterId::MacRetries => "mac.retries",
            CounterId::MacSubmit => "mac.submit",
            CounterId::MacTxAttempt => "mac.tx_attempt",
            CounterId::NetBeaconRx => "net.beacon_rx",
            CounterId::NetDeliver => "net.deliver",
            CounterId::NetDropDuplicate => "net.drop.Duplicate",
            CounterId::NetDropNoListener => "net.drop.NoListener",
            CounterId::NetDropNoRoute => "net.drop.NoRoute",
            CounterId::NetDropTtlExpired => "net.drop.TtlExpired",
            CounterId::NetForward => "net.forward",
            CounterId::NetNeighborBlacklisted => "net.neighbor_blacklisted",
            CounterId::NetNeighborExpired => "net.neighbor_expired",
            CounterId::NetNeighborNew => "net.neighbor_new",
            CounterId::NetOriginate => "net.originate",
            CounterId::NetQueueDrop => "net.queue_drop",
            CounterId::PaddingAppended => "padding.appended",
            CounterId::PaddingCapped => "padding.capped",
            CounterId::RxBeacon => "rx.beacon",
            CounterId::RxCorrupt => "rx.corrupt",
            CounterId::RxFrames => "rx.frames",
            CounterId::RxGarbled => "rx.garbled",
            CounterId::RxHalfduplexMiss => "rx.halfduplex_miss",
            CounterId::SysBlacklistUnknown => "sys.blacklist_unknown",
            CounterId::SysSpawnFail => "sys.spawn_fail",
            CounterId::SysSubscribeConflict => "sys.subscribe_conflict",
            CounterId::TxAck => "tx.ack",
            CounterId::TxBeacon => "tx.beacon",
            CounterId::TxBytes => "tx.bytes",
            CounterId::TxData => "tx.data",
        }
    }

    /// Resolve a name to its id, if one exists.
    pub fn from_name(name: &str) -> Option<CounterId> {
        Self::ALL.into_iter().find(|id| id.name() == name)
    }
}

// One `touched` bit per counter.
const _: () = assert!(CounterId::COUNT <= 64);

/// A registry of monotonically increasing counters, one slot per
/// [`CounterId`].
///
/// Iteration and serialization present the touched counters sorted by
/// name, as one `name → value` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Slot `i` holds the counter `CounterId::ALL[i]`.
    values: [u64; CounterId::COUNT],
    /// Bit `i` set ⇔ slot `i` has been touched: a touched-but-zero
    /// counter still shows up in reports (e.g. after
    /// [`Counters::reset`]).
    touched: u64,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            values: [0; CounterId::COUNT],
            touched: 0,
        }
    }
}

impl Counters {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter: one array add, no hashing, no allocation.
    #[inline]
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        self.values[id as usize] += n;
        self.touched |= 1 << id as usize;
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Current value of a counter.
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.values[id as usize]
    }

    /// Current value of the counter named `name` (zero if never
    /// touched, or if no counter has that name).
    pub fn get(&self, name: &str) -> u64 {
        CounterId::from_name(name).map_or(0, |id| self.get_id(id))
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate the touched counters' `(name, value)` pairs in
    /// lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL
            .into_iter()
            .filter(|&id| self.touched >> id as usize & 1 == 1)
            .map(|id| (id.name(), self.get_id(id)))
    }

    /// Reset every counter to zero (the names persist).
    pub fn reset(&mut self) {
        self.values = [0; CounterId::COUNT];
    }

    /// Merge another registry into this one by summing.
    pub fn merge(&mut self, other: &Counters) {
        self.touched |= other.touched;
        for (v, &o) in self.values.iter_mut().zip(&other.values) {
            *v += o;
        }
    }

    /// The per-counter increase since `baseline` was captured.
    ///
    /// Counters are monotone, so for an earlier snapshot of the same
    /// registry every delta is `self - baseline`; zero deltas are
    /// omitted so the result only names what actually moved. (If a
    /// counter was reset between the snapshots the delta saturates at
    /// zero rather than underflowing.)
    pub fn diff(&self, baseline: &Counters) -> Counters {
        let mut out = Counters::new();
        for id in CounterId::ALL {
            let delta = self.get_id(id).saturating_sub(baseline.get_id(id));
            if delta > 0 {
                out.add_id(id, delta);
            }
        }
        out
    }

    /// Number of touched counters (including zero-valued ones).
    pub fn len(&self) -> usize {
        self.touched.count_ones() as usize
    }

    /// True when no counter has ever been touched.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }
}

// Serialized as one "values" field holding the touched counters'
// name → value map, sorted by name.
impl Serialize for Counters {
    fn to_value(&self) -> Value {
        let entries = self
            .iter()
            .map(|(k, v)| (k.to_owned(), Value::U64(v)))
            .collect();
        Value::Map(vec![("values".to_owned(), Value::Map(entries))])
    }
}

/// Refuses a name that is not a [`CounterId`]: session peers send
/// these, and an unknown name has no slot to land in.
impl Deserialize for Counters {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let values = v
            .map_get("values")
            .ok_or_else(|| DeError::msg("missing field `values`"))?;
        let map: BTreeMap<String, u64> = Deserialize::from_value(values)?;
        let mut out = Counters::new();
        for (k, v) in map {
            let id = CounterId::from_name(&k)
                .ok_or_else(|| DeError::msg(format!("unknown counter `{k}`")))?;
            out.add_id(id, v);
        }
        Ok(out)
    }
}

/// A histogram over durations with fixed-width buckets.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    bucket_width: SimDuration,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum_ns: u128,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

impl Histogram {
    /// A histogram with `buckets` buckets of width `bucket_width`;
    /// samples beyond the last bucket land in an overflow bin.
    pub fn new(bucket_width: SimDuration, buckets: usize) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be nonzero");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            buckets: vec![0; buckets],
            overflow: 0,
            count: 0,
            sum_ns: 0,
            min: None,
            max: None,
        }
    }

    /// Record one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let idx = (d.as_nanos() / self.bucket_width.as_nanos()) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum_ns += d.as_nanos() as u128;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Smallest sample seen.
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest sample seen.
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }

    /// Approximate quantile (`q` in `[0,1]`) from bucket boundaries.
    /// Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(self.bucket_width.saturating_mul(i as u64 + 1));
            }
        }
        // Landed in overflow: report the observed maximum.
        self.max
    }

    /// Samples that exceeded the bucketed range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Merge another histogram recorded with the same geometry
    /// (bucket width and bucket count) into this one. Panics on a
    /// geometry mismatch — merging differently shaped histograms would
    /// silently misplace samples.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "histogram bucket widths differ"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket counts differ"
        );
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// A running summary of scalar samples (Welford's online algorithm).
///
/// This is the unit the multi-trial experiment engine aggregates: the
/// runner returns per-trial values in trial order and the aggregate
/// pushes them one by one in that order, which keeps the float
/// arithmetic — and therefore the reported statistics — bit-identical
/// no matter how many worker threads ran the trials.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample standard deviation (zero for fewer than two
    /// samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Half-width of the normal-approximation 95% confidence interval
    /// of the mean (`1.96 · s/√n`; zero for fewer than two samples).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.count as f64).sqrt()
        }
    }
}

impl Default for Summary {
    /// An empty summary, the same as [`Summary::new`].
    fn default() -> Self {
        Summary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_basics() {
        let mut c = Counters::new();
        c.incr_id(CounterId::TxData);
        c.add_id(CounterId::TxData, 2);
        c.incr_id(CounterId::TxAck);
        assert_eq!(c.get_id(CounterId::TxData), 3);
        assert_eq!(c.get("tx.data"), 3);
        assert_eq!(c.get("tx.ack"), 1);
        assert_eq!(c.get("rx.frames"), 0);
        assert_eq!(c.get("no.such.counter"), 0);
        assert_eq!(c.sum_prefix("tx."), 4);
    }

    #[test]
    fn counters_merge_and_reset() {
        let mut a = Counters::new();
        a.add_id(CounterId::TxData, 5);
        let mut b = Counters::new();
        b.add_id(CounterId::TxData, 2);
        b.incr_id(CounterId::RxFrames);
        b.add_id(CounterId::MacRetries, 0);
        a.merge(&b);
        assert_eq!(a.get_id(CounterId::TxData), 7);
        assert_eq!(a.get_id(CounterId::RxFrames), 1);
        // A touched-but-zero counter stays named through a merge…
        assert_eq!(a.len(), 3);
        a.reset();
        assert_eq!(a.get_id(CounterId::TxData), 0);
        assert_eq!(a.sum_prefix(""), 0);
        // …and through a reset.
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn counters_diff_reports_only_movement() {
        let mut c = Counters::new();
        c.add_id(CounterId::TxData, 3);
        c.incr_id(CounterId::RxFrames);
        let baseline = c.clone();
        c.add_id(CounterId::TxData, 2);
        c.incr_id(CounterId::MacFailedNoAck);
        let d = c.diff(&baseline);
        assert_eq!(d.get("tx.data"), 2);
        assert_eq!(d.get("mac.failed.NoAck"), 1);
        // rx.frames did not move, so it is absent entirely.
        assert_eq!(d.len(), 2);
        // A reset between snapshots saturates instead of underflowing.
        c.reset();
        assert!(c.diff(&baseline).is_empty());
    }

    /// The JSON is one name-sorted `values` map of the touched
    /// counters, zeros included, and it refuses a name that has no id.
    #[test]
    fn counters_json_keeps_touched_zeros_and_refuses_unknown_names() {
        let mut c = Counters::new();
        c.add_id(CounterId::TxData, 7);
        c.add_id(CounterId::TxBytes, 364);
        c.incr_id(CounterId::DynInvalid);
        c.add_id(CounterId::KernelArenaMiss, 0);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            r#"{"values":{"dyn.invalid":1,"kernel.arena_miss":0,"tx.bytes":364,"tx.data":7}}"#
        );
        let back: Counters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.len(), 4);
        assert!(serde_json::from_str::<Counters>(r#"{"values":{"cmd.ping":1}}"#).is_err());
    }

    #[test]
    fn counters_iterate_sorted() {
        let mut c = Counters::new();
        c.incr_id(CounterId::TxData);
        c.incr_id(CounterId::DynNodeDown);
        c.incr_id(CounterId::MacSubmit);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["dyn.node_down", "mac.submit", "tx.data"]);
    }

    /// Every name resolves back to its id, `ALL` is sorted by name (so
    /// iteration is), and every name is namespaced `ns.part`: a
    /// lowercase namespace, then one or more dot-separated components,
    /// as in `dyn.node_down`, `padding.capped`, `net.drop.NoRoute`.
    #[test]
    fn every_counter_id_round_trips_by_name() {
        let namespaced = |name: &str| {
            let mut parts = name.split('.');
            let ns = parts.next().unwrap_or("");
            let ns_ok = ns.starts_with(|c: char| c.is_ascii_lowercase())
                && ns
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            let rest: Vec<&str> = parts.collect();
            ns_ok
                && !rest.is_empty()
                && rest.iter().all(|p| {
                    !p.is_empty() && p.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                })
        };
        for (i, id) in CounterId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i);
            assert_eq!(CounterId::from_name(id.name()), Some(id));
            assert!(namespaced(id.name()), "{} is not `ns.part`", id.name());
        }
        for w in CounterId::ALL.windows(2) {
            assert!(
                w[0].name() < w[1].name(),
                "{} !< {}",
                w[0].name(),
                w[1].name()
            );
        }
        assert_eq!(CounterId::from_name("no.such.counter"), None);
        assert!(!namespaced("NodeDown"));
        assert!(!namespaced("retries"));
        assert!(!namespaced("net..drop"));
    }

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new(SimDuration::from_millis(1), 10);
        h.record(SimDuration::from_millis(2));
        h.record(SimDuration::from_millis(4));
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean(), SimDuration::from_millis(3));
        assert_eq!(h.min(), Some(SimDuration::from_millis(2)));
        assert_eq!(h.max(), Some(SimDuration::from_millis(4)));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(SimDuration::from_millis(1), 100);
        for ms in 1..=100u64 {
            h.record(SimDuration::from_micros(ms * 1000 - 500));
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!(
            (49..=51).contains(&p50.as_millis()),
            "p50 = {}",
            p50.as_millis()
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99.as_millis() >= 98, "p99 = {}", p99.as_millis());
        assert!(h.quantile(0.0).is_some());
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(SimDuration::from_millis(1), 2);
        h.record(SimDuration::from_millis(10));
        assert_eq!(h.overflow(), 1);
        // Quantile falls back to the max when everything overflowed.
        assert_eq!(h.quantile(0.5), Some(SimDuration::from_millis(10)));
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(SimDuration::from_millis(1), 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic]
    fn histogram_zero_width_panics() {
        let _ = Histogram::new(SimDuration::ZERO, 4);
    }

    #[test]
    fn histogram_merge_combines_everything() {
        let mut a = Histogram::new(SimDuration::from_millis(1), 4);
        let mut b = Histogram::new(SimDuration::from_millis(1), 4);
        a.record(SimDuration::from_millis(1));
        b.record(SimDuration::from_millis(3));
        b.record(SimDuration::from_millis(10)); // overflow
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.min(), Some(SimDuration::from_millis(1)));
        assert_eq!(a.max(), Some(SimDuration::from_millis(10)));
        assert_eq!(
            a.mean(),
            SimDuration::from_nanos((1_000_000 + 3_000_000 + 10_000_000) / 3)
        );
    }

    #[test]
    #[should_panic]
    fn histogram_merge_geometry_mismatch_panics() {
        let mut a = Histogram::new(SimDuration::from_millis(1), 4);
        let b = Histogram::new(SimDuration::from_millis(2), 4);
        a.merge(&b);
    }

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample (n-1) stddev of the classic dataset is sqrt(32/7).
        assert!((s.stddev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!(s.ci95_half_width() > 0.0);
    }

    #[test]
    fn empty_summary_is_inert() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn default_summary_is_empty() {
        // A derived `Default` would start `max` at 0.0 and report it
        // for an all-negative sample set (RSSI readings).
        let mut s = Summary::default();
        s.push(-5.0);
        assert_eq!(s.max(), Some(-5.0));
        assert_eq!(s.min(), Some(-5.0));
    }
}
