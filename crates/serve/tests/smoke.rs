//! In-process version of the CI `serve-smoke` job: a real loopback
//! lv-serve instance under ≥16 concurrent scripted sessions, verified
//! to complete cleanly and shut down gracefully.

use lv_serve::{run_fleet, FleetConfig};

#[test]
fn sixteen_concurrent_sessions_complete_cleanly() {
    let cfg = FleetConfig {
        sessions: 16,
        commands_per_session: 3,
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg).expect("fleet boots");
    assert!(
        report.failures.is_empty(),
        "session failures: {:?}",
        report.failures
    );
    assert_eq!(report.commands_ok, 16 * 3, "every scripted command ran");
    // Graceful shutdown: the server drained and reported its counters.
    assert!(report.server_stats.requests >= report.commands_ok);
    assert_eq!(report.server_stats.send_failures, 0);
}

#[test]
fn fleet_report_json_is_one_line() {
    let cfg = FleetConfig {
        sessions: 4,
        commands_per_session: 1,
        ..FleetConfig::default()
    };
    let report = run_fleet(&cfg).expect("fleet boots");
    let json = report.to_json();
    assert!(!json.contains('\n'), "the summary must be one line");
    assert!(json.contains("\"commands_ok\""), "{json}");
}
