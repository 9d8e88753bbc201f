//! The LiteView shell — an actual interactive REPL over a simulated
//! deployment.
//!
//! ```text
//! cargo run --example shell --release            # interactive
//! echo "ping 192.168.0.2 round=1 length=32" | \
//!   cargo run --example shell --release          # scripted
//! ```
//!
//! Boots the paper's testbed shape (an 8-hop corridor with geographic
//! forwarding on port 10 and the LiteView suite on every node), drops
//! you at `/sn01/192.168.0.1`, and accepts the paper's command syntax.
//! Type `help` for the verb list; `run <s>` advances virtual time so
//! you can watch neighbor tables converge or links recover.
//!
//! Diagnosis verbs (`cd`, `pwd`, `ping`, `traceroute`, …) go through
//! the same [`SessionHost`] protocol the `lv-serve` daemon speaks —
//! this REPL is literally a one-session, no-socket lv-serve. Only the
//! simulator-introspection verbs (`map`, `stats`, `tracedump`) reach
//! into the simulated deployment directly.

use liteview_repro::liteview::session::{
    Request, RequestBody, ResponseBody, SessionHost, PROTOCOL_VERSION,
};
use liteview_repro::liteview::shell::{parse_line, ShellInput, HELP};
use liteview_repro::lv_testbed::{Scenario, ScenarioConfig, Topology};
use std::io::{BufRead, Write};

/// The REPL's single local session.
struct LocalSession {
    host: SessionHost,
    seq: u32,
}

/// Arbitrary; any stable (peer, session) pair works for a lone local
/// session.
const PEER: u64 = 0;
const SESSION: u32 = 1;

impl LocalSession {
    fn call(&mut self, s: &mut Scenario, body: RequestBody) -> ResponseBody {
        self.seq += 1;
        let req = Request {
            session: SESSION,
            seq: self.seq,
            body,
        };
        self.host.apply(&mut s.net, &mut s.ws, PEER, &req).body
    }
}

fn main() {
    println!("booting 9-node corridor testbed (this is simulated time)…");
    let mut s = Scenario::build(ScenarioConfig::new(Topology::eight_hop_corridor(), 42));
    let mut session = LocalSession {
        host: SessionHost::new(),
        seq: 0,
    };
    let ResponseBody::Welcome { nodes, .. } = session.call(
        &mut s,
        RequestBody::Hello {
            version: PROTOCOL_VERSION,
        },
    ) else {
        panic!("local session handshake failed");
    };
    let mut prompt = match session.call(
        &mut s,
        RequestBody::Cd {
            node: "192.168.0.1".into(),
        },
    ) {
        ResponseBody::Cwd { path, .. } => path,
        other => panic!("cd into the bridge failed: {other:?}"),
    };
    println!("LiteView shell — {nodes} nodes up, geographic forwarding on port 10.");
    println!("type `help` for commands.\n");

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
            Ok(ShellInput::Pwd) => match session.call(&mut s, RequestBody::Pwd) {
                ResponseBody::Cwd { path, .. } => println!("{path}"),
                ResponseBody::Error { message } => println!("{message}"),
                other => println!("unexpected response: {other:?}"),
            },
            Ok(ShellInput::Cd(name)) => {
                match session.call(&mut s, RequestBody::Cd { node: name }) {
                    ResponseBody::Cwd { path, .. } => prompt = path,
                    ResponseBody::Error { message } => println!("{message}"),
                    other => println!("unexpected response: {other:?}"),
                }
            }
            Ok(ShellInput::Map) => {
                print!(
                    "{}",
                    liteview_repro::lv_testbed::map::render_map(&s.net, 64, 12)
                );
            }
            Ok(ShellInput::Stats { node }) => {
                let filter = match node.as_deref().map(|n| s.net.resolve(n)) {
                    Some(None) => {
                        println!("no such node: {}", node.unwrap());
                        continue;
                    }
                    Some(Some(id)) => Some(id),
                    None => None,
                };
                for st in s.net.node_stats() {
                    if filter.is_some_and(|id| id != st.id) {
                        continue;
                    }
                    println!(
                        "{} ({}): {}  queue={} neighbors={} procs={} energy={:.2} mJ",
                        st.name,
                        st.id,
                        if st.alive { "up" } else { "DOWN" },
                        st.queue_len,
                        st.neighbor_count,
                        st.process_count,
                        st.energy_mj,
                    );
                    if filter.is_some() {
                        for (k, v) in st.counters.iter() {
                            println!("  {k} = {v}");
                        }
                    }
                }
            }
            Ok(ShellInput::TraceDump { node }) => {
                let filter = match node.as_deref().map(|n| s.net.resolve(n)) {
                    Some(None) => {
                        println!("no such node: {}", node.unwrap());
                        continue;
                    }
                    Some(Some(id)) => Some(id),
                    None => None,
                };
                let mut shown = 0usize;
                for ev in s.net.trace.events() {
                    if filter.is_some_and(|id| id != ev.node) {
                        continue;
                    }
                    println!("{ev}");
                    shown += 1;
                }
                let dropped = s.net.trace.dropped();
                println!("({shown} events retained, {dropped} dropped)");
            }
            Ok(ShellInput::Report) => match session.call(&mut s, RequestBody::Report) {
                ResponseBody::Report { json } => println!("{json}"),
                other => println!("unexpected response: {other:?}"),
            },
            Ok(ShellInput::ReportDiagnosis) => {
                match session.call(&mut s, RequestBody::ReportDiagnosis) {
                    ResponseBody::Report { json } => println!("{json}"),
                    other => println!("unexpected response: {other:?}"),
                }
            }
            Ok(ShellInput::Run { secs }) => {
                let nanos = (secs * 1e9) as u64;
                match session.call(&mut s, RequestBody::Run { nanos }) {
                    ResponseBody::Ran { now_ns } => {
                        println!("(advanced {secs} s; now t = {now_ns} ns)")
                    }
                    ResponseBody::Error { message } => println!("{message}"),
                    other => println!("unexpected response: {other:?}"),
                }
            }
            Ok(ShellInput::Command(cmd)) => {
                match session.call(&mut s, RequestBody::Exec { command: cmd }) {
                    ResponseBody::Done { lines, .. } => {
                        for l in lines {
                            println!("{l}");
                        }
                    }
                    ResponseBody::Error { message } => println!("{message}"),
                    other => println!("unexpected response: {other:?}"),
                }
            }
        }
    }
}
