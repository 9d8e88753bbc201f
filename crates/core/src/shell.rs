//! Shell-syntax parsing for the interactive toolkit.
//!
//! The paper's user interface is "an extension of the interactive shell
//! of the LiteOS operating system": textual commands with positional
//! targets and `key=value` options (`ping 192.168.0.2 round=1
//! length=32`, `traceroute 192.168.0.3 round=1 length=32 port=10`).
//! This module parses those lines into [`ShellInput`] values that the
//! REPL (see `examples/shell.rs`) resolves against a live network.

use crate::commands::Command;
use lv_kernel::Network;
use lv_net::packet::Port;
use lv_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A parsed shell command whose node names are not yet resolved.
///
/// This is also the wire-level command vocabulary of the `lv-serve`
/// session protocol (see [`crate::session`]): the interactive shell and
/// the daemon speak the same parsed type, and name resolution always
/// happens server-side against the hosted deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ShellCommand {
    /// `ping <name> [round=N] [length=N] [port=N]`.
    Ping {
        /// Destination node name.
        dst: String,
        /// Probe rounds.
        rounds: u8,
        /// Probe length.
        length: u8,
        /// Carrying port (multi-hop) or `None` for one hop.
        port: Option<u8>,
    },
    /// `traceroute <name> [length=N] [port=N]` (port defaults to 10).
    Traceroute {
        /// Destination node name.
        dst: String,
        /// Probe length.
        length: u8,
        /// Carrying port.
        port: u8,
    },
    /// `list [quality]`.
    List {
        /// Include quality columns.
        quality: bool,
    },
    /// `blacklist add|remove <name>`.
    Blacklist {
        /// Neighbor name.
        name: String,
        /// Add vs remove.
        add: bool,
    },
    /// `update period=<ms>`.
    Update {
        /// New beacon period, milliseconds.
        period_ms: u64,
    },
    /// `power` (read).
    GetPower,
    /// `power <level>` (set).
    SetPower(u8),
    /// `channel` (read).
    GetChannel,
    /// `channel <n>` (set).
    SetChannel(u8),
    /// `status`.
    Status,
    /// `survey` — broadcast status query to all nodes in range.
    Survey,
    /// `log on|off`.
    SetLogging(bool),
    /// `readlog [n]`.
    ReadLog {
        /// Maximum entries.
        max: u8,
    },
}

/// One parsed line of shell input.
#[derive(Debug, Clone, PartialEq)]
pub enum ShellInput {
    /// `cd <name>` or `cd /sn01/<name>`.
    Cd(String),
    /// `pwd`.
    Pwd,
    /// `help`.
    Help,
    /// `quit` / `exit`.
    Quit,
    /// `run <seconds>` — advance the simulation (REPL-only verb).
    Run {
        /// Seconds of virtual time to advance.
        secs: f64,
    },
    /// `map` — draw the deployment (REPL-only verb; rendering lives in
    /// `lv-testbed`).
    Map,
    /// `stats [name]` — one node's (or every node's) flight-recorder
    /// counters (REPL-only verb; reads simulator state directly).
    Stats {
        /// Node name, or `None` for all nodes.
        node: Option<String>,
    },
    /// `trace [name]` — dump the retained event timeline, optionally
    /// filtered to one node (REPL-only verb).
    TraceDump {
        /// Node name filter, or `None` for the whole network.
        node: Option<String>,
    },
    /// `report` — export the network-wide observability report as JSON
    /// (REPL-only verb).
    Report,
    /// `report diagnose` — export the automated diagnosis engine's
    /// episode log as JSON.
    ReportDiagnosis,
    /// A node-targeted command.
    Command(ShellCommand),
    /// Empty line / comment.
    Nothing,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn opt_value<'a>(tokens: &'a [&str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

fn parse_opt<T: std::str::FromStr>(
    tokens: &[&str],
    key: &str,
    default: T,
) -> Result<T, ParseError> {
    match opt_value(tokens, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ParseError(format!("bad value for {key}: {v}"))),
    }
}

/// Parse one line of shell input.
///
/// ```
/// use liteview::shell::{parse_line, ShellCommand, ShellInput};
///
/// let parsed = parse_line("ping 192.168.0.2 round=1 length=32").unwrap();
/// assert!(matches!(
///     parsed,
///     ShellInput::Command(ShellCommand::Ping { rounds: 1, length: 32, .. })
/// ));
/// ```
pub fn parse_line(line: &str) -> Result<ShellInput, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(ShellInput::Nothing);
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    // A trimmed non-empty line always splits into at least one token.
    let Some((verb, rest)) = tokens.split_first() else {
        return Ok(ShellInput::Nothing);
    };
    match *verb {
        "cd" => {
            let target = rest
                .first()
                .ok_or_else(|| ParseError("cd: missing node name".into()))?;
            let name = target
                .rsplit('/')
                .next()
                .filter(|s| !s.is_empty())
                .ok_or_else(|| ParseError(format!("cd: bad path {target}")))?;
            Ok(ShellInput::Cd(name.to_owned()))
        }
        "pwd" => Ok(ShellInput::Pwd),
        "map" => Ok(ShellInput::Map),
        "stats" => Ok(ShellInput::Stats {
            node: rest.first().map(|s| s.to_string()),
        }),
        "trace" => Ok(ShellInput::TraceDump {
            node: rest.first().map(|s| s.to_string()),
        }),
        "report" => match rest.first() {
            Some(&"diagnose") => Ok(ShellInput::ReportDiagnosis),
            Some(other) => Err(ParseError(format!(
                "report: unknown sub-report {other} (try `report` or `report diagnose`)"
            ))),
            None => Ok(ShellInput::Report),
        },
        "help" | "?" => Ok(ShellInput::Help),
        "quit" | "exit" => Ok(ShellInput::Quit),
        "run" => {
            let secs: f64 = rest
                .first()
                .ok_or_else(|| ParseError("run: missing seconds".into()))?
                .trim_end_matches('s')
                .parse()
                .map_err(|_| ParseError("run: bad seconds".into()))?;
            if secs.is_nan() || secs <= 0.0 {
                return Err(ParseError("run: seconds must be positive".into()));
            }
            Ok(ShellInput::Run { secs })
        }
        "ping" => {
            let dst = rest
                .first()
                .ok_or_else(|| ParseError("ping: missing destination".into()))?
                .to_string();
            let rounds = parse_opt(rest, "round", 1u8)?.max(1);
            let length = parse_opt(rest, "length", 32u8)?;
            let port: u8 = parse_opt(rest, "port", 0u8)?;
            Ok(ShellInput::Command(ShellCommand::Ping {
                dst,
                rounds,
                length,
                port: (port != 0).then_some(port),
            }))
        }
        "traceroute" => {
            let dst = rest
                .first()
                .ok_or_else(|| ParseError("traceroute: missing destination".into()))?
                .to_string();
            let length = parse_opt(rest, "length", 32u8)?;
            let port = parse_opt(rest, "port", 10u8)?;
            Ok(ShellInput::Command(ShellCommand::Traceroute {
                dst,
                length,
                port,
            }))
        }
        "list" => Ok(ShellInput::Command(ShellCommand::List {
            quality: rest.contains(&"quality"),
        })),
        "blacklist" => {
            let action = rest
                .first()
                .ok_or_else(|| ParseError("blacklist: add|remove <name>".into()))?;
            let add = match *action {
                "add" => true,
                "remove" => false,
                other => return Err(ParseError(format!("blacklist: unknown action {other}"))),
            };
            let name = rest
                .get(1)
                .ok_or_else(|| ParseError("blacklist: missing node name".into()))?
                .to_string();
            Ok(ShellInput::Command(ShellCommand::Blacklist { name, add }))
        }
        "update" => {
            let period_ms: u64 = opt_value(rest, "period")
                .ok_or_else(|| ParseError("update: period=<ms> required".into()))?
                .trim_end_matches("ms")
                .parse()
                .map_err(|_| ParseError("update: bad period".into()))?;
            Ok(ShellInput::Command(ShellCommand::Update { period_ms }))
        }
        "power" => match rest.first() {
            None => Ok(ShellInput::Command(ShellCommand::GetPower)),
            Some(v) => {
                let level: u8 = v
                    .parse()
                    .map_err(|_| ParseError(format!("power: bad level {v}")))?;
                Ok(ShellInput::Command(ShellCommand::SetPower(level)))
            }
        },
        "channel" => match rest.first() {
            None => Ok(ShellInput::Command(ShellCommand::GetChannel)),
            Some(v) => {
                let n: u8 = v
                    .parse()
                    .map_err(|_| ParseError(format!("channel: bad number {v}")))?;
                Ok(ShellInput::Command(ShellCommand::SetChannel(n)))
            }
        },
        "status" => Ok(ShellInput::Command(ShellCommand::Status)),
        "survey" => Ok(ShellInput::Command(ShellCommand::Survey)),
        "log" => match rest.first() {
            Some(&"on") => Ok(ShellInput::Command(ShellCommand::SetLogging(true))),
            Some(&"off") => Ok(ShellInput::Command(ShellCommand::SetLogging(false))),
            _ => Err(ParseError("log: on|off".into())),
        },
        "readlog" => {
            let max = match rest.first() {
                None => 24,
                Some(v) => v
                    .parse()
                    .map_err(|_| ParseError(format!("readlog: bad count {v}")))?,
            };
            Ok(ShellInput::Command(ShellCommand::ReadLog { max }))
        }
        other => Err(ParseError(format!("unknown command: {other} (try `help`)"))),
    }
}

impl ShellCommand {
    /// Resolve node names against the deployment and produce the typed
    /// [`Command`] the workstation executes. Both front ends (the local
    /// shell and `lv-serve` clients) cross here, so this is where values
    /// the wire cannot carry are refused: a beacon period travels as
    /// whole milliseconds in `1..=u32::MAX`.
    pub fn resolve(&self, net: &Network) -> Result<Command, ParseError> {
        let resolve_name = |name: &str| {
            net.resolve(name)
                .ok_or_else(|| ParseError(format!("no such node: {name}")))
        };
        Ok(match self {
            ShellCommand::Ping {
                dst,
                rounds,
                length,
                port,
            } => Command::Ping {
                dst: resolve_name(dst)?,
                rounds: *rounds,
                length: *length,
                port: port.map(Port),
            },
            ShellCommand::Traceroute { dst, length, port } => Command::Traceroute {
                dst: resolve_name(dst)?,
                length: *length,
                port: Port(*port),
            },
            ShellCommand::List { quality } => Command::NeighborList {
                with_quality: *quality,
            },
            ShellCommand::Blacklist { name, add } => Command::Blacklist {
                neighbor: resolve_name(name)?,
                add: *add,
            },
            ShellCommand::Update { period_ms } => match u32::try_from(*period_ms) {
                Ok(0) => return Err(ParseError("update: period must be positive".into())),
                Ok(ms) => Command::UpdateBeacon {
                    period: SimDuration::from_millis(u64::from(ms)),
                },
                Err(_) => {
                    let max = u32::MAX;
                    return Err(ParseError(format!("update: period above {max} ms")));
                }
            },
            ShellCommand::GetPower => Command::GetPower,
            ShellCommand::SetPower(level) => Command::SetPower(*level),
            ShellCommand::GetChannel => Command::GetChannel,
            ShellCommand::SetChannel(n) => Command::SetChannel(*n),
            ShellCommand::Status => Command::Status,
            ShellCommand::Survey => Command::GroupStatus,
            ShellCommand::SetLogging(on) => Command::SetLogging(*on),
            ShellCommand::ReadLog { max } => Command::ReadLog { max: *max },
        })
    }
}

/// The `help` text.
pub const HELP: &str = "\
LiteView shell commands:
  cd <name>                      log into a node (e.g. cd 192.168.0.2)
  pwd                            print the current node path
  ping <name> [round=N] [length=N] [port=N]
  traceroute <name> [length=N] [port=N]
  list [quality]                 dump the kernel neighbor table
  blacklist add|remove <name>    toggle a neighbor's blacklist bit
  update period=<ms>             retune the beacon exchange frequency
  power [level]                  read or set the TX power (0-31)
  channel [n]                    read or set the radio channel (11-26)
  status                         power/channel/queue/neighbors snapshot
  survey                         broadcast status query to all in range
  log on|off                     toggle on-demand event logging
  readlog [n]                    fetch the node's event log
  run <seconds>                  advance simulated time
  map                            draw the deployment and its links
  stats [name]                   flight-recorder counters per node
  trace [name]                   dump the retained event timeline
  report                         export the observability report (JSON)
  report diagnose                export the automated diagnosis log (JSON)
  help                           this text
  quit                           leave the shell";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_ping_line() {
        // The exact line from the paper's sample session.
        let input = parse_line("ping 192.168.0.2 round=1 length=32").unwrap();
        assert_eq!(
            input,
            ShellInput::Command(ShellCommand::Ping {
                dst: "192.168.0.2".into(),
                rounds: 1,
                length: 32,
                port: None,
            })
        );
    }

    #[test]
    fn parses_paper_traceroute_line() {
        let input = parse_line("traceroute 192.168.0.3 length=32 port=10").unwrap();
        assert_eq!(
            input,
            ShellInput::Command(ShellCommand::Traceroute {
                dst: "192.168.0.3".into(),
                length: 32,
                port: 10,
            })
        );
    }

    #[test]
    fn traceroute_port_defaults_to_10() {
        let ShellInput::Command(ShellCommand::Traceroute { port, .. }) =
            parse_line("traceroute 192.168.0.3").unwrap()
        else {
            panic!()
        };
        assert_eq!(port, 10);
    }

    #[test]
    fn cd_accepts_full_mount_paths() {
        assert_eq!(
            parse_line("cd /sn01/192.168.0.5").unwrap(),
            ShellInput::Cd("192.168.0.5".into())
        );
        assert_eq!(
            parse_line("cd 192.168.0.5").unwrap(),
            ShellInput::Cd("192.168.0.5".into())
        );
    }

    #[test]
    fn blacklist_actions() {
        assert_eq!(
            parse_line("blacklist add 192.168.0.9").unwrap(),
            ShellInput::Command(ShellCommand::Blacklist {
                name: "192.168.0.9".into(),
                add: true
            })
        );
        assert_eq!(
            parse_line("blacklist remove x").unwrap(),
            ShellInput::Command(ShellCommand::Blacklist {
                name: "x".into(),
                add: false
            })
        );
        assert!(parse_line("blacklist frobnicate x").is_err());
    }

    #[test]
    fn power_and_channel_read_vs_set() {
        assert_eq!(
            parse_line("power").unwrap(),
            ShellInput::Command(ShellCommand::GetPower)
        );
        assert_eq!(
            parse_line("power 25").unwrap(),
            ShellInput::Command(ShellCommand::SetPower(25))
        );
        assert_eq!(
            parse_line("channel 17").unwrap(),
            ShellInput::Command(ShellCommand::SetChannel(17))
        );
        assert!(parse_line("power banana").is_err());
    }

    #[test]
    fn update_requires_period() {
        assert_eq!(
            parse_line("update period=1500ms").unwrap(),
            ShellInput::Command(ShellCommand::Update { period_ms: 1500 })
        );
        assert!(parse_line("update").is_err());
        // The range check is `ShellCommand::resolve`'s, which both front
        // ends cross (see the session tests).
        assert_eq!(
            parse_line("update period=0").unwrap(),
            ShellInput::Command(ShellCommand::Update { period_ms: 0 })
        );
    }

    #[test]
    fn run_and_misc_verbs() {
        assert_eq!(parse_line("run 5s").unwrap(), ShellInput::Run { secs: 5.0 });
        assert_eq!(
            parse_line("run 0.5").unwrap(),
            ShellInput::Run { secs: 0.5 }
        );
        assert!(parse_line("run -1").is_err());
        assert_eq!(parse_line("pwd").unwrap(), ShellInput::Pwd);
        assert_eq!(parse_line("map").unwrap(), ShellInput::Map);
        assert_eq!(parse_line("help").unwrap(), ShellInput::Help);
        assert_eq!(parse_line("quit").unwrap(), ShellInput::Quit);
        assert_eq!(parse_line("").unwrap(), ShellInput::Nothing);
        assert_eq!(parse_line("# comment").unwrap(), ShellInput::Nothing);
        assert!(parse_line("frobnicate").is_err());
    }

    #[test]
    fn flight_recorder_verbs() {
        assert_eq!(
            parse_line("stats").unwrap(),
            ShellInput::Stats { node: None }
        );
        assert_eq!(
            parse_line("stats 192.168.0.2").unwrap(),
            ShellInput::Stats {
                node: Some("192.168.0.2".into())
            }
        );
        assert_eq!(
            parse_line("trace").unwrap(),
            ShellInput::TraceDump { node: None }
        );
        assert_eq!(
            parse_line("trace 192.168.0.3").unwrap(),
            ShellInput::TraceDump {
                node: Some("192.168.0.3".into())
            }
        );
        assert_eq!(parse_line("report").unwrap(), ShellInput::Report);
        assert_eq!(
            parse_line("report diagnose").unwrap(),
            ShellInput::ReportDiagnosis
        );
        assert!(parse_line("report bogus").is_err());
    }

    #[test]
    fn log_and_readlog() {
        assert_eq!(
            parse_line("log on").unwrap(),
            ShellInput::Command(ShellCommand::SetLogging(true))
        );
        assert_eq!(
            parse_line("readlog 8").unwrap(),
            ShellInput::Command(ShellCommand::ReadLog { max: 8 })
        );
        assert_eq!(
            parse_line("readlog").unwrap(),
            ShellInput::Command(ShellCommand::ReadLog { max: 24 })
        );
        assert!(parse_line("log maybe").is_err());
    }

    #[test]
    fn bad_option_values_rejected() {
        assert!(parse_line("ping x round=many").is_err());
        assert!(parse_line("ping").is_err());
        assert!(parse_line("traceroute").is_err());
    }
}
