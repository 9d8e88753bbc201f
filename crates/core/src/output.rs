//! Paper-style transcript rendering.
//!
//! Formats command results the way Section III.B's sample shell
//! sessions print them, e.g.:
//!
//! ```text
//! Pinging 192.168.0.2 with 1 packets with 32 bytes:
//! RTT = 4.7 ms, LQI = 108/106, RSSI = -1/8, Queue = 0/0
//! Power = 31, Channel = 17
//! Ping statistics: Packets = 1 Received = 1 Lost = 0
//! ```

use crate::commands::{Command, CommandResult, Execution};
use lv_kernel::Network;

fn name_of(net: &Network, id: u16) -> String {
    if (id as usize) < net.node_count() {
        net.node(id).name.clone()
    } else {
        format!("node-{id}")
    }
}

/// Render an execution into paper-style transcript lines.
pub fn render(net: &Network, exec: &Execution) -> Vec<String> {
    let mut out = Vec::new();
    match (&exec.command, &exec.result) {
        (
            Command::Ping {
                dst,
                rounds,
                length,
                ..
            },
            CommandResult::Ping(p),
        ) => {
            out.push(format!(
                "Pinging {} with {} packets with {} bytes:",
                name_of(net, *dst),
                rounds,
                length
            ));
            for r in &p.rounds {
                out.push(format!(
                    "RTT = {:.1} ms, LQI = {}/{}, RSSI = {}/{}, Queue = {}/{}",
                    r.rtt_us as f64 / 1000.0,
                    r.lqi_fwd,
                    r.lqi_bwd,
                    r.rssi_fwd,
                    r.rssi_bwd,
                    r.queue_fwd,
                    r.queue_bwd
                ));
                if !r.fwd_hops.is_empty() {
                    let hops: Vec<String> = r
                        .fwd_hops
                        .iter()
                        .map(|h| format!("({}, {})", h.lqi, h.rssi))
                        .collect();
                    out.push(format!("Forward hops (LQI, RSSI): {}", hops.join(" ")));
                }
                if !r.bwd_hops.is_empty() {
                    let hops: Vec<String> = r
                        .bwd_hops
                        .iter()
                        .map(|h| format!("({}, {})", h.lqi, h.rssi))
                        .collect();
                    out.push(format!("Backward hops (LQI, RSSI): {}", hops.join(" ")));
                }
            }
            out.push(format!("Power = {}, Channel = {}", p.power, p.channel));
            out.push("Ping statistics:".to_owned());
            out.push(format!(
                "Packets = {} Received = {} Lost = {}",
                p.sent,
                p.received,
                p.lost()
            ));
        }
        (Command::Traceroute { dst, length, .. }, CommandResult::Traceroute(t)) => {
            out.push(format!(
                "Reaching {} with 1 packets with {} bytes:",
                name_of(net, *dst),
                length
            ));
            if let Some(protocol) = &t.protocol {
                out.push(format!("Name of protocol: {protocol}"));
            }
            for hop in &t.hops {
                let r = &hop.record;
                if r.no_route {
                    out.push(format!("Hop {}: no route", r.hop_index));
                } else if r.probe_lost {
                    out.push(format!(
                        "Hop {}: probe to {} lost",
                        r.hop_index,
                        name_of(net, r.far)
                    ));
                } else {
                    out.push(format!("Reply from {}", name_of(net, r.far)));
                    out.push(format!(
                        "RTT = {:.1} ms, LQI = {}/{}, RSSI = {}/{}, Queue = {}/{}",
                        r.rtt_us as f64 / 1000.0,
                        r.lqi_fwd,
                        r.lqi_bwd,
                        r.rssi_fwd,
                        r.rssi_bwd,
                        r.queue_fwd,
                        r.queue_bwd
                    ));
                }
            }
            out.push("Traceroute statistics:".to_owned());
            out.push(format!(
                "Packets = {} Received = {} Lost = {}",
                t.hops.len(),
                t.received(),
                t.lost()
            ));
        }
        (Command::NeighborList { with_quality }, CommandResult::Neighbors(rows)) => {
            out.push(format!("Neighbor table ({} entries):", rows.len()));
            for r in rows {
                let mut line = format!("  {} (id {})", r.name, r.id);
                if *with_quality {
                    let outq = r
                        .outbound_q
                        .map(|q| format!("{:.2}", q as f64 / 255.0))
                        .unwrap_or_else(|| "?".to_owned());
                    line.push_str(&format!(
                        "  in={:.2} out={}",
                        r.inbound_q as f64 / 255.0,
                        outq
                    ));
                }
                if r.blacklisted {
                    line.push_str("  [blacklisted]");
                }
                out.push(line);
            }
        }
        (_, CommandResult::GroupStatus(rows)) => {
            out.push(format!("Group status ({} nodes answered):", rows.len()));
            for r in rows {
                out.push(format!(
                    "  {}: Power = {}, Channel = {}, Queue = {}, Neighbors = {}",
                    name_of(net, r.node),
                    r.power,
                    r.channel,
                    r.queue,
                    r.neighbors
                ));
            }
        }
        (_, CommandResult::Log(rows)) => {
            out.push(format!("Event log ({} entries):", rows.len()));
            for r in rows {
                out.push(format!(
                    "  [{:>8} ms] {:<10} {}",
                    r.time_ms, r.code, r.detail
                ));
            }
        }
        (_, CommandResult::Power(p)) => out.push(format!("Power = {p}")),
        (_, CommandResult::Channel(c)) => out.push(format!("Channel = {c}")),
        (
            _,
            CommandResult::Status {
                power,
                channel,
                queue,
                neighbors,
            },
        ) => out.push(format!(
            "Power = {power}, Channel = {channel}, Queue = {queue}, Neighbors = {neighbors}"
        )),
        (_, CommandResult::Ok) => out.push("ok".to_owned()),
        (_, CommandResult::Timeout) => out.push("error: no response".to_owned()),
        (_, CommandResult::Error(code)) => out.push(format!("error: code {code}")),
        _ => out.push("error: unexpected reply".to_owned()),
    }
    out
}
