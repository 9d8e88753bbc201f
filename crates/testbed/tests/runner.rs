//! Integration tests for the multi-trial engine: determinism across
//! worker counts and wall-clock speedup from the worker pool.

use lv_sim::SimTime;
use lv_testbed::experiments;
use lv_testbed::{DynamicsPlan, FailurePlan, TrialRunner};
use std::time::{Duration, Instant};

/// Same root seed ⇒ bit-identical aggregates, no matter how many
/// worker threads ran the trials. Fig. 5 is compared field by field,
/// Fig. 7 (each trial a whole path-length sweep inside one worker) by
/// its serialized rows.
#[test]
fn aggregates_are_bit_identical_across_worker_counts() {
    let serial = experiments::fig5_traceroute_delay_agg(&TrialRunner::new(42, 8).workers(1));
    let parallel = experiments::fig5_traceroute_delay_agg(&TrialRunner::new(42, 8).workers(4));
    assert!(!serial.is_empty(), "expected aggregate rows");
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.hop, b.hop);
        assert_eq!(a.trials, 8);
        assert_eq!(a.delay_ms.n, b.delay_ms.n);
        // Compare at the bit level: f64 equality would also accept
        // -0.0 == 0.0, which is not the reproducibility we promise.
        assert_eq!(a.delay_ms.mean.to_bits(), b.delay_ms.mean.to_bits());
        assert_eq!(a.delay_ms.stddev.to_bits(), b.delay_ms.stddev.to_bits());
        assert_eq!(a.delay_ms.ci95.to_bits(), b.delay_ms.ci95.to_bits());
        assert_eq!(a.delay_ms.min.to_bits(), b.delay_ms.min.to_bits());
        assert_eq!(a.delay_ms.max.to_bits(), b.delay_ms.max.to_bits());
    }
    // The serialized form (what the figures harness prints) matches too.
    assert_eq!(
        serde_json::to_string(&serial).unwrap(),
        serde_json::to_string(&parallel).unwrap()
    );
    let fig7 = |workers| {
        let rows = experiments::fig7_overhead_agg(&TrialRunner::new(42, 8).workers(workers));
        serde_json::to_string(&rows).unwrap()
    };
    assert_eq!(fig7(1), fig7(4));
}

/// The failure sweep is equally scheduling-independent, including
/// which trials receive the fault.
#[test]
fn failure_sweep_is_bit_identical_across_worker_counts() {
    let kill = DynamicsPlan::new().node_churn(4, SimTime::ZERO, None);
    let plans = [FailurePlan::new("kill-node-4", kill, 0.5)];
    let a = experiments::failure_sweep(&TrialRunner::new(7, 8).workers(1), &plans);
    let b = experiments::failure_sweep(&TrialRunner::new(7, 8).workers(3), &plans);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
    assert_eq!(a[0].faulted, 4);
}

/// Aggregate drivers report ≥8 trials with a mean and a 95% CI, so
/// every figure point carries an error bar. Fig. 7 rows must cover all
/// 8 path lengths with every trial contributing.
#[test]
fn fig7_aggregate_covers_all_path_lengths() {
    let runner = TrialRunner::new(11, 8);
    let rows = experiments::fig7_overhead_agg(&runner);
    assert_eq!(rows.len(), 8);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.hops as usize, i + 1);
        assert_eq!(r.trials, 8);
        assert_eq!(r.control_packets.n, 8);
        assert!(r.control_packets.mean > 0.0);
        assert!(r.control_packets.ci95 >= 0.0);
    }
    // Overhead still grows with path length in the aggregate view.
    assert!(rows[7].control_packets.mean > rows[0].control_packets.mean);
}

/// Sixteen trials on a multi-worker pool must finish in well under
/// 0.75× the serial wall-clock. The workload blocks rather than spins,
/// so the test also demonstrates the speedup on single-CPU CI runners.
#[test]
fn worker_pool_beats_serial_wall_clock() {
    let work = |t: lv_testbed::TrialCtx| {
        std::thread::sleep(Duration::from_millis(30));
        t.seed
    };
    let runner = TrialRunner::new(3, 16);

    let start = Instant::now();
    let serial = runner.clone().workers(1).run(work);
    let serial_elapsed = start.elapsed();

    let start = Instant::now();
    let parallel = runner.workers(4).run(work);
    let parallel_elapsed = start.elapsed();

    assert_eq!(serial, parallel, "results must not depend on workers");
    assert!(
        parallel_elapsed < serial_elapsed.mul_f64(0.75),
        "parallel {parallel_elapsed:?} vs serial {serial_elapsed:?}"
    );
}
