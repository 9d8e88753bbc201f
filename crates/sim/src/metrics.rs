//! Lightweight metric primitives used by every layer.
//!
//! The evaluation reproduces packet *counts* (Fig. 7, one-hop ping
//! overhead) and *delay distributions* (Fig. 5, the 500 ms response
//! window), so the engine provides named counters, a fixed-bucket
//! histogram, and a running summary of scalar samples.

use crate::time::SimDuration;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Interned ids for the counters the simulation touches per packet.
///
/// The tx/rx hot path used to pay a `BTreeMap<String, u64>` lookup (and
/// frequently a `format!` allocation) for every frame. Interned counters
/// get a fixed array slot instead: [`Counters::incr_id`] and
/// [`Counters::add_id`] are a single array add, and the string name only
/// materializes at report time. The string API ([`Counters::add`] et
/// al.) transparently routes recognized names to the same slots, so both
/// views always agree.
///
/// Variants are declared in lexicographic *name* order, which lets the
/// merged report iteration interleave interned and ad-hoc counters with
/// a linear merge instead of a sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum CounterId {
    /// `dyn.channel_noise`
    DynChannelNoise,
    /// `dyn.link_override`
    DynLinkOverride,
    /// `dyn.node_down`
    DynNodeDown,
    /// `dyn.node_up`
    DynNodeUp,
    /// `dyn.reconfig`
    DynReconfig,
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
    /// Number of interned counters.
    pub const COUNT: usize = 42;

    /// Every interned counter, in lexicographic name order.
    pub const ALL: [CounterId; Self::COUNT] = [
        CounterId::DynChannelNoise,
        CounterId::DynLinkOverride,
        CounterId::DynNodeDown,
        CounterId::DynNodeUp,
        CounterId::DynReconfig,
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
            CounterId::DynLinkOverride => "dyn.link_override",
            CounterId::DynNodeDown => "dyn.node_down",
            CounterId::DynNodeUp => "dyn.node_up",
            CounterId::DynReconfig => "dyn.reconfig",
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

    /// Resolve a name to its interned id, if one exists.
    pub fn from_name(name: &str) -> Option<CounterId> {
        Self::ALL.into_iter().find(|id| id.name() == name)
    }
}

/// A registry of named monotonically increasing counters.
///
/// Interned counters (see [`CounterId`]) live in a fixed array; anything
/// else lands in a `BTreeMap`. Iteration and serialization present one
/// merged, lexicographically sorted view, so reports are byte-identical
/// to the old purely map-backed representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Fast slots, indexed by `CounterId as usize`.
    fast: [u64; CounterId::COUNT],
    /// Bit `i` set ⇔ slot `i` has been touched. Mirrors the old "map key
    /// exists" state: a touched-but-zero counter still shows up in
    /// reports (e.g. after [`Counters::reset`]).
    touched: u64,
    /// Ad-hoc counters named at runtime. Invariant: never holds a name
    /// that `CounterId::from_name` recognizes.
    values: BTreeMap<String, u64>,
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            fast: [0; CounterId::COUNT],
            touched: 0,
            values: BTreeMap::new(),
        }
    }
}

impl Counters {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to an interned counter. This is the hot path: one array
    /// add, no hashing, no allocation.
    #[inline]
    pub fn add_id(&mut self, id: CounterId, n: u64) {
        self.fast[id as usize] += n;
        self.touched |= 1 << id as usize;
    }

    /// Increment an interned counter by one.
    #[inline]
    pub fn incr_id(&mut self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Current value of an interned counter.
    #[inline]
    pub fn get_id(&self, id: CounterId) -> u64 {
        self.fast[id as usize]
    }

    /// Add `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(id) = CounterId::from_name(name) {
            self.add_id(id, n);
            return;
        }
        // Get-then-insert: the common existing-key case allocates nothing.
        match self.values.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.values.insert(name.to_owned(), n);
            }
        }
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        match CounterId::from_name(name) {
            Some(id) => self.fast[id as usize],
            None => self.values.get(name).copied().unwrap_or(0),
        }
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate `(name, value)` pairs in lexicographic order, merging the
    /// interned slots with the ad-hoc map.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut out: Vec<(&str, u64)> = Vec::with_capacity(self.len());
        let mut ids = CounterId::ALL
            .iter()
            .filter(|&&id| self.touched >> (id as usize) & 1 == 1)
            .peekable();
        let mut map = self.values.iter().peekable();
        loop {
            // Interned names are never map keys, so ties cannot occur.
            match (ids.peek(), map.peek()) {
                (Some(&&id), Some(&(k, _))) if id.name() < k.as_str() => {
                    out.push((id.name(), self.fast[id as usize]));
                    ids.next();
                }
                (_, Some(_)) => {
                    // The peek above guarantees the next exists.
                    if let Some((k, &v)) = map.next() {
                        out.push((k.as_str(), v));
                    }
                }
                (Some(&&id), None) => {
                    out.push((id.name(), self.fast[id as usize]));
                    ids.next();
                }
                (None, None) => break,
            }
        }
        out.into_iter()
    }

    /// Reset every counter to zero (the names persist).
    pub fn reset(&mut self) {
        self.fast = [0; CounterId::COUNT];
        for v in self.values.values_mut() {
            *v = 0;
        }
    }

    /// Merge another registry into this one by summing.
    pub fn merge(&mut self, other: &Counters) {
        self.touched |= other.touched;
        for (i, &v) in other.fast.iter().enumerate() {
            self.fast[i] += v;
        }
        for (k, &v) in other.values.iter() {
            self.add(k, v);
        }
    }

    /// The per-counter increase since `baseline` was captured.
    ///
    /// Counters are monotone, so for an earlier snapshot of the same
    /// registry every delta is `self - baseline`; a counter absent from
    /// the baseline contributes its full value, and zero deltas are
    /// omitted so the result only names what actually moved. (If a
    /// counter was reset between the snapshots the delta saturates at
    /// zero rather than underflowing.)
    pub fn diff(&self, baseline: &Counters) -> Counters {
        let mut out = Counters::new();
        for id in CounterId::ALL {
            let delta = self.fast[id as usize].saturating_sub(baseline.fast[id as usize]);
            if delta > 0 {
                out.add_id(id, delta);
            }
        }
        // `values` never holds an interned name, so a map key's
        // baseline is the baseline's map entry.
        for (k, &v) in &self.values {
            let delta = v.saturating_sub(baseline.values.get(k).copied().unwrap_or(0));
            if delta > 0 {
                out.values.insert(k.clone(), delta);
            }
        }
        out
    }

    /// Number of named counters (including zero-valued ones).
    pub fn len(&self) -> usize {
        self.touched.count_ones() as usize + self.values.len()
    }

    /// True when no counter has ever been touched.
    pub fn is_empty(&self) -> bool {
        self.touched == 0 && self.values.is_empty()
    }
}

// Hand-written serde impls that reproduce the byte-exact shape of the
// old `#[derive]` on `struct Counters { values: BTreeMap<String, u64> }`:
// one "values" field holding the merged, sorted name→value map.
impl Serialize for Counters {
    fn to_value(&self) -> Value {
        let entries = self
            .iter()
            .map(|(k, v)| (k.to_owned(), Value::U64(v)))
            .collect();
        Value::Map(vec![("values".to_owned(), Value::Map(entries))])
    }
}

impl Deserialize for Counters {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let values = v
            .map_get("values")
            .ok_or_else(|| DeError::msg("missing field `values`"))?;
        let map: BTreeMap<String, u64> = Deserialize::from_value(values)?;
        let mut out = Counters::new();
        for (k, v) in map {
            out.add(&k, v); // re-routes interned names into fast slots
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
#[derive(Debug, Default, Clone, Serialize)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_basics() {
        let mut c = Counters::new();
        c.incr("tx.data");
        c.add("tx.data", 2);
        c.incr("tx.ack");
        assert_eq!(c.get("tx.data"), 3);
        assert_eq!(c.get("tx.ack"), 1);
        assert_eq!(c.get("rx.none"), 0);
        assert_eq!(c.sum_prefix("tx."), 4);
    }

    #[test]
    fn counters_merge_and_reset() {
        let mut a = Counters::new();
        a.add("x", 5);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 1);
        a.merge(&b);
        assert_eq!(a.get("x"), 7);
        assert_eq!(a.get("y"), 1);
        a.reset();
        assert_eq!(a.get("x"), 0);
        assert_eq!(a.sum_prefix(""), 0);
    }

    #[test]
    fn counters_diff_reports_only_movement() {
        let mut c = Counters::new();
        c.add("tx.data", 3);
        c.add("rx.frames", 1);
        let baseline = c.clone();
        c.add("tx.data", 2);
        c.add("mac.failed", 1);
        let d = c.diff(&baseline);
        assert_eq!(d.get("tx.data"), 2);
        assert_eq!(d.get("mac.failed"), 1);
        // rx.frames did not move, so it is absent entirely.
        assert_eq!(d.len(), 2);
        // A reset between snapshots saturates instead of underflowing.
        c.reset();
        assert!(c.diff(&baseline).is_empty());
    }

    #[test]
    fn counters_json_round_trip() {
        let mut c = Counters::new();
        c.add("net.forward", 7);
        c.incr("padding.capped");
        let json = serde_json::to_string(&c).unwrap();
        let back: Counters = serde_json::from_str(&json).unwrap();
        assert_eq!(back.get("net.forward"), 7);
        assert_eq!(back.get("padding.capped"), 1);
        assert_eq!(back.len(), c.len());
    }

    #[test]
    fn counters_iterate_sorted() {
        let mut c = Counters::new();
        c.incr("b");
        c.incr("a");
        c.incr("c");
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn interned_and_string_apis_share_one_namespace() {
        let mut c = Counters::new();
        c.incr("tx.data"); // string API routes into the fast slot
        c.add_id(CounterId::TxData, 2);
        assert_eq!(c.get("tx.data"), 3);
        assert_eq!(c.get_id(CounterId::TxData), 3);
        c.incr_id(CounterId::NetDropNoRoute);
        assert_eq!(c.get("net.drop.NoRoute"), 1);
        assert_eq!(c.sum_prefix("net.drop."), 1);
    }

    #[test]
    fn every_counter_id_round_trips_by_name() {
        for id in CounterId::ALL {
            assert_eq!(CounterId::from_name(id.name()), Some(id));
        }
        // ALL must be sorted by name so merged iteration stays sorted.
        for w in CounterId::ALL.windows(2) {
            assert!(
                w[0].name() < w[1].name(),
                "{} !< {}",
                w[0].name(),
                w[1].name()
            );
        }
        assert_eq!(CounterId::from_name("no.such.counter"), None);
    }

    #[test]
    fn interned_counters_interleave_sorted_with_adhoc() {
        let mut c = Counters::new();
        c.incr("cmd.ping"); // ad-hoc, sorts before "mac.*"
        c.incr_id(CounterId::MacDelivered);
        c.incr("mac.extra"); // ad-hoc, between delivered and submit
        c.incr_id(CounterId::MacSubmit);
        c.incr("zzz.last");
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            vec![
                "cmd.ping",
                "mac.delivered",
                "mac.extra",
                "mac.submit",
                "zzz.last"
            ]
        );
        assert_eq!(c.len(), 5);
    }

    /// Interning is invisible in reports: counting interned and ad-hoc
    /// names through the string API gives the totals, JSON (one
    /// name-sorted `values` map) and reset behaviour of a plain
    /// name → count map.
    #[test]
    fn counter_totals_unchanged_by_interning() {
        let mut c = Counters::new();
        // A realistic tx/rx sequence through the string API only.
        for _ in 0..7 {
            c.incr("tx.data");
            c.add("tx.bytes", 52);
        }
        c.incr("rx.corrupt");
        #[derive(Debug)]
        enum Reason {
            NoRoute,
        }
        c.incr(&format!("net.drop.{:?}", Reason::NoRoute)); // old callsite shape
        c.incr("cmd.traceroute");
        assert_eq!(c.get("tx.data"), 7);
        assert_eq!(c.get("tx.bytes"), 364);
        assert_eq!(c.sum_prefix("tx."), 371);
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            r#"{"values":{"cmd.traceroute":1,"net.drop.NoRoute":1,"rx.corrupt":1,"tx.bytes":364,"tx.data":7}}"#
        );
        let back: Counters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // Reset keeps every name visible at zero, as the map did.
        c.reset();
        assert_eq!(c.len(), 5);
        assert_eq!(c.iter().map(|(_, v)| v).sum::<u64>(), 0);
    }

    #[test]
    fn interned_merge_and_diff() {
        let mut a = Counters::new();
        a.incr_id(CounterId::TxData);
        a.incr("custom.x");
        let baseline = a.clone();
        let mut b = Counters::new();
        b.add_id(CounterId::TxData, 4);
        b.incr_id(CounterId::RxFrames);
        b.add("custom.x", 2);
        a.merge(&b);
        assert_eq!(a.get_id(CounterId::TxData), 5);
        assert_eq!(a.get_id(CounterId::RxFrames), 1);
        assert_eq!(a.get("custom.x"), 3);
        let d = a.diff(&baseline);
        assert_eq!(d.get("tx.data"), 4);
        assert_eq!(d.get("rx.frames"), 1);
        assert_eq!(d.get("custom.x"), 2);
        assert_eq!(d.len(), 3);
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
}
