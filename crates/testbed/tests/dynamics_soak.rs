//! Acceptance test for the degradation-ramp soak (the `figures
//! --dynamics` scenario): the paper's §IV diagnosis story must unfold
//! in order — traceroute's per-hop LQI/RSSI drops on the injected hop
//! while end-to-end ping still works (detect), the finished ramp kills
//! ping while eviction and degradation blacklisting fire (fail), and
//! the repaired link recovers (recover) — with the kernel's invariant
//! auditor silent throughout.

use lv_testbed::experiments::dynamics_soak;

#[test]
fn soak_arc_detect_fail_recover() {
    let r = dynamics_soak(42);

    // The three milestones exist and happen in order.
    assert!(r.detect_ms >= 0.0, "degradation never became visible");
    assert!(
        r.ping_fail_ms > r.detect_ms,
        "profiling must localize the weakening hop before ping dies \
         (detect={} fail={})",
        r.detect_ms,
        r.ping_fail_ms
    );
    assert!(
        r.recover_ms > r.ping_fail_ms,
        "link repair must restore ping (fail={} recover={})",
        r.ping_fail_ms,
        r.recover_ms
    );

    // The fault engine's side effects are observable: stale neighbors
    // were evicted, the degraded link was blacklisted, and every
    // mutation left a dyn.* fingerprint in the counters.
    assert!(r.evictions > 0, "no neighbor evictions fired");
    assert!(r.blacklists > 0, "degradation blacklisting never fired");
    assert!(r.dyn_trace_events > 0, "no dynamics mutations recorded");

    // The kernel's invariant auditor ran through the whole soak and saw
    // nothing wrong (`figures --dynamics` fails on the same count).
    assert_eq!(r.audit_violations, 0, "kernel audit violations in the soak");

    // Per-hop signal quality on the injected hop visibly drops from its
    // pre-ramp baseline before the path fails outright.
    let baseline = r
        .rounds
        .iter()
        .find(|row| row.hop_seen)
        .expect("hop 5 must report in at least once");
    let weakest = r
        .rounds
        .iter()
        .filter(|row| row.hop_seen)
        .map(|row| (row.hop_rssi, row.hop_lqi))
        .min()
        .expect("at least the baseline round is hop-visible");
    assert!(
        weakest.0 < baseline.hop_rssi || weakest.1 < baseline.hop_lqi,
        "hop 5 LQI/RSSI never dropped below baseline \
         (baseline rssi={} lqi={}, weakest rssi={} lqi={})",
        baseline.hop_rssi,
        baseline.hop_lqi,
        weakest.0,
        weakest.1
    );
}
