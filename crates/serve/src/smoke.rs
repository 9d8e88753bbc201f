//! Concurrent-session fleet harness.
//!
//! Boots a real `lv-serve` instance on an ephemeral loopback port,
//! launches N concurrent scripted client sessions against it over UDP,
//! and verifies every session completes and the server shuts down
//! cleanly. The CI `serve-smoke` job runs this via `lv-serve --smoke`.

use crate::client::Client;
use crate::udp::{UdpConfig, UdpTransport};
use crate::{Server, ServerConfig, ServerStats};
use liteview::shell::ShellCommand;
use lv_testbed::{Scenario, ScenarioConfig, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Fleet shape.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent client sessions.
    pub sessions: usize,
    /// Diagnosis commands each session executes.
    pub commands_per_session: usize,
    /// Deployment seed.
    pub seed: u64,
    /// Server policy (rate limits, idle timeout, session cap).
    pub server: ServerConfig,
    /// Per-attempt client response timeout.
    pub client_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            sessions: 16,
            commands_per_session: 3,
            seed: 42,
            server: ServerConfig {
                max_sessions: 256,
                rate_limit: 256.0,
                burst: 256.0,
                ..ServerConfig::default()
            },
            client_timeout: Duration::from_secs(10),
        }
    }
}

/// What the fleet run measured.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Sessions launched.
    pub sessions: usize,
    /// Commands that completed with a full execution record.
    pub commands_ok: u64,
    /// Per-session failure messages (empty on a clean run).
    pub failures: Vec<String>,
    /// Wall-clock duration of the whole fleet.
    pub wall: Duration,
    /// Server-side counters at shutdown.
    pub server_stats: ServerStats,
    /// Datagrams dropped at the server's bounded receive queue.
    pub rx_dropped: u64,
}

impl FleetReport {
    /// One-line JSON summary for CI logs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions\": {}, \"commands_ok\": {}, \"failures\": {}, \"wall_ms\": {}, \
             \"executions\": {}, \"rate_limited\": {}, \"duplicates\": {}, \"rx_dropped\": {}}}",
            self.sessions,
            self.commands_ok,
            self.failures.len(),
            self.wall.as_millis(),
            self.server_stats.executions,
            self.server_stats.rate_limited,
            self.server_stats.duplicates,
            self.rx_dropped,
        )
    }
}

/// The command script one session replays (cycled to the requested
/// length). Cheap fixed-window commands so the fleet exercises
/// concurrency, not traceroute windows.
fn script_command(i: usize) -> ShellCommand {
    match i % 3 {
        0 => ShellCommand::Status,
        1 => ShellCommand::GetPower,
        _ => ShellCommand::GetChannel,
    }
}

/// Run a fleet of concurrent scripted sessions against a freshly
/// booted loopback server. Errors describe what went wrong; a clean
/// run returns a report with no failures.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetReport, String> {
    let stop = Arc::new(AtomicBool::new(false));
    let (addr_tx, addr_rx) = mpsc::channel();
    let server_cfg = cfg.server.clone();
    let seed = cfg.seed;
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<(ServerStats, u64), String> {
            // The deployment (and its !Send workstation) live entirely
            // on this thread.
            let scenario =
                Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), seed));
            let transport = UdpTransport::bind("127.0.0.1:0", UdpConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
            let addr = transport.local_addr().map_err(|e| format!("addr: {e}"))?;
            let mut server = Server::new(scenario.net, scenario.ws, transport, server_cfg);
            addr_tx.send(addr).map_err(|e| format!("addr send: {e}"))?;
            let stats = server.run_until(|| stop.load(Ordering::Relaxed));
            let dropped = server.transport().rx_dropped();
            Ok((stats, dropped))
        })
    };
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .map_err(|e| format!("server did not come up: {e}"))?;

    let start = Instant::now();
    let commands = cfg.commands_per_session;
    let timeout = cfg.client_timeout;
    let node_count = Topology::eight_hop_corridor().node_count();
    let mut client_threads = Vec::new();
    for s in 0..cfg.sessions {
        client_threads.push(std::thread::spawn(move || -> Result<u64, String> {
            let transport = UdpTransport::connect(addr, UdpConfig::default())
                .map_err(|e| format!("session {s}: connect: {e}"))?;
            let mut client = Client::new(transport, 0, s as u32 + 1);
            client.timeout = timeout;
            let err =
                |stage: &str, e: crate::client::ClientError| format!("session {s}: {stage}: {e}");
            client.hello().map_err(|e| err("hello", e))?;
            // Sessions spread over the corridor's nodes.
            let node = format!("192.168.0.{}", 1 + (s % node_count));
            client.cd(&node).map_err(|e| err("cd", e))?;
            let mut ok = 0u64;
            for i in 0..commands {
                let (execution, lines) =
                    client.exec(script_command(i)).map_err(|e| err("exec", e))?;
                if lines.is_empty() {
                    return Err(format!("session {s}: empty transcript"));
                }
                let _ = execution.response_delay;
                ok += 1;
            }
            client.bye().map_err(|e| err("bye", e))?;
            Ok(ok)
        }));
    }

    let mut commands_ok = 0u64;
    let mut failures = Vec::new();
    for t in client_threads {
        match t.join() {
            Ok(Ok(n)) => commands_ok += n,
            Ok(Err(msg)) => failures.push(msg),
            Err(_) => failures.push("client thread panicked".to_owned()),
        }
    }
    let wall = start.elapsed();

    stop.store(true, Ordering::Relaxed);
    let (server_stats, rx_dropped) = server_thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())??;

    Ok(FleetReport {
        sessions: cfg.sessions,
        commands_ok,
        failures,
        wall,
        server_stats,
        rx_dropped,
    })
}
