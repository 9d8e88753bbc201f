//! The `lv-serve` binary: daemon, thin client REPL, and the CI fleet
//! modes.
//!
//! ```text
//! lv-serve [--bind 127.0.0.1:7171] [--seed 42] [--rate 64] [--idle-ms 30000]
//!     Host an eight-hop-corridor deployment and serve diagnosis
//!     sessions until stdin closes (or a `quit` line).
//!
//! lv-serve --client 127.0.0.1:7171
//!     Interactive thin client: LiteView shell syntax over UDP.
//!
//! lv-serve --smoke N [--cmds M] [--seed S]
//!     Boot a loopback server, run N concurrent scripted sessions,
//!     verify clean completion + shutdown. Exit 0 on success.
//! ```

use liteview::shell::{parse_line, ShellInput, HELP};
use lv_serve::{run_fleet, Client, FleetConfig, Server, ServerConfig, UdpConfig, UdpTransport};
use lv_testbed::{Scenario, ScenarioConfig, Topology};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", USAGE);
        0
    } else if args.iter().any(|a| a == "--smoke") {
        smoke_mode(&args)
    } else if let Some(addr) = flag_value(&args, "--client") {
        client_mode(&addr)
    } else {
        serve_mode(&args)
    };
    std::process::exit(code);
}

const USAGE: &str = "\
lv-serve — host LiteView diagnosis sessions over UDP

  lv-serve [--bind A] [--seed N] [--rate N] [--idle-ms N]   serve (stdin closes => shutdown)
  lv-serve --client ADDR                                    interactive thin client
  lv-serve --smoke N [--cmds M] [--seed S]                  N concurrent sessions, exit 0 if clean";

fn fleet_config(args: &[String], sessions: usize) -> FleetConfig {
    FleetConfig {
        sessions,
        commands_per_session: parse_flag(args, "--cmds", 3usize),
        seed: parse_flag(args, "--seed", 42u64),
        ..FleetConfig::default()
    }
}

fn smoke_mode(args: &[String]) -> i32 {
    let sessions = parse_flag(args, "--smoke", 16usize);
    let cfg = fleet_config(args, sessions);
    eprintln!(
        "serve-smoke: {} concurrent sessions x {} commands over loopback UDP…",
        cfg.sessions, cfg.commands_per_session
    );
    match run_fleet(&cfg) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.failures.is_empty()
                && report.commands_ok == (cfg.sessions * cfg.commands_per_session) as u64
            {
                eprintln!("serve-smoke: clean ({} commands)", report.commands_ok);
                0
            } else {
                for f in &report.failures {
                    eprintln!("serve-smoke: FAIL {f}");
                }
                eprintln!(
                    "serve-smoke: {} ok of {} expected",
                    report.commands_ok,
                    cfg.sessions * cfg.commands_per_session
                );
                1
            }
        }
        Err(e) => {
            eprintln!("serve-smoke: {e}");
            1
        }
    }
}

fn serve_mode(args: &[String]) -> i32 {
    let bind = flag_value(args, "--bind").unwrap_or_else(|| "127.0.0.1:7171".to_owned());
    let seed = parse_flag(args, "--seed", 42u64);
    let rate = parse_flag(args, "--rate", 64.0f64);
    let idle_ms = parse_flag(args, "--idle-ms", 30_000u64);

    let transport = match UdpTransport::bind(&bind, UdpConfig::default()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lv-serve: cannot bind {bind}: {e}");
            return 1;
        }
    };
    let addr = match transport.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lv-serve: {e}");
            return 1;
        }
    };

    eprintln!("lv-serve: booting eight-hop corridor (seed {seed})…");
    let scenario = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), seed));
    let cfg = ServerConfig {
        rate_limit: rate,
        burst: rate,
        idle_timeout: Duration::from_millis(idle_ms),
        ..ServerConfig::default()
    };
    let mut server = Server::new(scenario.net, scenario.ws, transport, cfg);
    eprintln!("lv-serve: listening on {addr} — press Enter / close stdin to stop");

    // Stdin watcher flips the stop flag; the serving loop lives here
    // because the workstation state is not Send.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "quit" || l.trim().is_empty() => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
    let stats = server.run_until(|| stop.load(Ordering::Relaxed));
    eprintln!(
        "lv-serve: shut down cleanly ({} requests, {} executions, {} rate-limited, {} idle-evicted)",
        stats.requests, stats.executions, stats.rate_limited, stats.idle_evicted
    );
    0
}

fn client_mode(addr: &str) -> i32 {
    let transport = match UdpTransport::connect(addr, UdpConfig::default()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lv-serve --client: cannot reach {addr}: {e}");
            return 1;
        }
    };
    let session = std::process::id(); // distinct per client process
    let mut client = Client::new(transport, 0, session);
    let welcome = match client.hello() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("lv-serve --client: handshake failed: {e}");
            return 1;
        }
    };
    println!(
        "connected to {addr} — {} nodes, bridge {}, t = {} ns",
        welcome.nodes, welcome.bridge, welcome.now_ns
    );
    println!("type `help` for commands; `quit` to leave.\n");

    let mut prompt = String::from("/sn01");
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("{prompt}$ ");
        std::io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else {
            println!();
            break;
        };
        match parse_line(&line) {
            Err(e) => println!("{e}"),
            Ok(ShellInput::Nothing) => {}
            Ok(ShellInput::Help) => println!("{HELP}"),
            Ok(ShellInput::Quit) => break,
            Ok(ShellInput::Cd(name)) => match client.cd(&name) {
                Ok((_, path)) => prompt = path,
                Err(e) => println!("{e}"),
            },
            Ok(ShellInput::Pwd) => match client.pwd() {
                Ok((_, path)) => println!("{path}"),
                Err(e) => println!("{e}"),
            },
            Ok(ShellInput::Run { secs }) => match client.run_nanos((secs * 1e9) as u64) {
                Ok(now) => println!("(advanced {secs} s; now t = {now} ns)"),
                Err(e) => println!("{e}"),
            },
            Ok(ShellInput::Report) => match client.report() {
                Ok(json) => println!("{json}"),
                Err(e) => println!("{e}"),
            },
            Ok(ShellInput::ReportDiagnosis) => match client.report_diagnosis() {
                Ok(json) => println!("{json}"),
                Err(e) => println!("{e}"),
            },
            Ok(ShellInput::Map)
            | Ok(ShellInput::Stats { .. })
            | Ok(ShellInput::TraceDump { .. }) => {
                println!("(that verb reads simulator state directly and is REPL-only; not available over the wire)");
            }
            Ok(ShellInput::Command(cmd)) => match client.exec(cmd) {
                Ok((_, lines)) => {
                    for l in lines {
                        println!("{l}");
                    }
                }
                Err(e) => println!("{e}"),
            },
        }
    }
    let _ = client.bye();
    0
}
