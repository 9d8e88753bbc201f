//! The diagnosis-session wire protocol, its shared dispatcher and the
//! live-operations policy around it.
//!
//! A *session* is one user logged into the hosted deployment: it owns a
//! current node (the LiteOS `cd` state) and issues parsed
//! [`ShellCommand`]s. The same protocol serves two front ends:
//!
//! * the interactive REPL in `examples/shell.rs` drives a local
//!   [`SessionHost`] through [`SessionHost::apply`] (no sockets, virtual
//!   time only);
//! * the `lv-serve` daemon feeds every frame it receives to
//!   [`SessionHost::on_frame`] and sends the reply back. The host owns
//!   each session's one row and every policy decision: duplicate
//!   replay, admission, rate limits and idle eviction. The daemon owns
//!   the sockets and the clock, and passes the time in.
//!
//! Both speak [`Request`]/[`Response`] — JSON messages wrapped in the
//! [`crate::transport::frame`] length-prefix framing — so the shell
//! and the daemon cannot drift apart: they are literally the same
//! types and the same `apply` function.
//!
//! Node names are resolved *server-side*, against the hosted network,
//! exactly like [`ShellCommand::resolve`] does for the local shell.

use crate::commands::{Command, Execution};
use crate::output;
use crate::shell::ShellCommand;
use crate::transport::{frame, PeerId};
use crate::workstation::{CommandRequest, ExecError, Workstation};
use lv_kernel::{shell_path, Network};
use lv_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Wire protocol revision; bumped on incompatible changes.
pub const PROTOCOL_VERSION: u32 = 1;

/// One framed client → server message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen session id (unique per client endpoint).
    pub session: u32,
    /// Monotonically increasing per-session sequence number; the
    /// matching [`Response`] echoes it, and servers use it to dedupe
    /// retransmitted requests.
    pub seq: u32,
    /// The verb.
    pub body: RequestBody,
}

/// What a session asks the host to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RequestBody {
    /// Open (or reset) the session.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Log into a node by name (`cd 192.168.0.2`).
    Cd {
        /// Node name or full `/sn01/...` path tail.
        node: String,
    },
    /// Report the session's current node path.
    Pwd,
    /// Execute a diagnosis command on the session's current node
    /// (ping, traceroute, list, power, survey, …).
    Exec {
        /// The parsed command; names resolved server-side.
        command: ShellCommand,
    },
    /// Advance virtual time (sim-hosted deployments only).
    Run {
        /// Nanoseconds of virtual time to advance.
        nanos: u64,
    },
    /// Export the network-wide observability report.
    Report,
    /// Export the automated diagnosis engine's episode log (the shell's
    /// `report diagnose`). Answered with [`ResponseBody::Report`]
    /// carrying [`crate::DiagnosisLog`] JSON (an empty log when no
    /// engine is armed).
    ReportDiagnosis,
    /// Close the session.
    Bye,
}

/// One framed server → client message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of [`Request::session`].
    pub session: u32,
    /// Echo of [`Request::seq`].
    pub seq: u32,
    /// The outcome.
    pub body: ResponseBody,
}

/// What the host answered.
//
// `Done` dwarfs the other variants, but responses are one-at-a-time
// wire messages, never stored in bulk — and the vendored serde has no
// `Box<T>` impls, so boxing the execution would break the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ResponseBody {
    /// Session opened.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Nodes in the hosted deployment.
        nodes: u64,
        /// The workstation's bridge mote.
        bridge: u16,
        /// Current virtual time, nanoseconds.
        now_ns: u64,
    },
    /// `cd`/`pwd` result.
    Cwd {
        /// Resolved node id.
        node: u16,
        /// Shell path (e.g. `/sn01/192.168.0.2`).
        path: String,
    },
    /// A command finished executing.
    Done {
        /// The full execution record (result, timeline, deltas).
        execution: Execution,
        /// Paper-style rendered output lines.
        lines: Vec<String>,
    },
    /// Virtual time advanced.
    Ran {
        /// New virtual time, nanoseconds.
        now_ns: u64,
    },
    /// The observability report, JSON-encoded.
    Report {
        /// Output of [`crate::ObservabilityReport::to_json`].
        json: String,
    },
    /// Session closed.
    Bye,
    /// The request failed; the session (if any) is still open.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

/// Errors turning bytes into protocol messages and back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The length-prefix framing was truncated or oversized.
    Frame(frame::FrameError),
    /// The payload was not valid protocol JSON.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Frame(e) => write!(f, "bad frame: {e:?}"),
            ProtoError::Malformed(e) => write!(f, "malformed message: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn encode_json<T: Serialize>(msg: &T) -> Vec<u8> {
    // Protocol types are plain data and always serialize; degrade to a
    // JSON null rather than aborting the host on the impossible branch.
    let json = serde_json::to_string(msg).unwrap_or_else(|_| String::from("null"));
    frame::encode(json.as_bytes())
}

fn decode_json<T: Deserialize>(bytes: &[u8]) -> Result<T, ProtoError> {
    let (payload, _) = frame::decode(bytes).map_err(ProtoError::Frame)?;
    let text = std::str::from_utf8(payload).map_err(|e| ProtoError::Malformed(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| ProtoError::Malformed(format!("{e:?}")))
}

impl Request {
    /// Serialize into one framed wire message.
    pub fn encode(&self) -> Vec<u8> {
        encode_json(self)
    }

    /// Parse one framed wire message.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        decode_json(bytes)
    }
}

impl Response {
    /// Serialize into one framed wire message.
    pub fn encode(&self) -> Vec<u8> {
        encode_json(self)
    }

    /// Parse one framed wire message.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        decode_json(bytes)
    }
}

/// Live-operations policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Sustained requests per second one session may issue.
    pub rate_limit: f64,
    /// Token-bucket depth (burst allowance).
    pub burst: f64,
    /// Sessions quiet for longer than this are evicted.
    pub idle_timeout: Duration,
    /// Hard cap on concurrently open sessions.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            rate_limit: 64.0,
            burst: 64.0,
            idle_timeout: Duration::from_secs(30),
            max_sessions: 64,
        }
    }
}

/// Operational counters, reported at shutdown and by the smoke harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Frames received that decoded as protocol requests.
    pub requests: u64,
    /// Commands executed against the deployment.
    pub executions: u64,
    /// Requests refused by the per-session rate limiter.
    pub rate_limited: u64,
    /// Cached responses replayed for retransmitted requests.
    pub duplicates: u64,
    /// Sessions evicted by the idle timeout.
    pub idle_evicted: u64,
    /// Frames that failed to decode.
    pub malformed: u64,
    /// Responses that could not be sent (transport errors or
    /// backpressure). Counted by the driver: only it sees a send fail.
    pub send_failures: u64,
    /// Sessions refused because the server was full.
    pub refused_full: u64,
}

/// One session's row: its login state and its live-operations state.
#[derive(Debug, Clone, Default)]
pub struct SessionState {
    /// The node this session is logged into (`cd` target), if any.
    pub cwd: Option<u16>,
    /// When the session last sent a frame (time since the server
    /// started); the token bucket is refilled up to it.
    last_seen: Duration,
    /// Tokens spent from the rate-limit bucket and not yet refilled:
    /// zero is a full bucket.
    spent: f64,
    /// The last cached response and the seq it answered.
    last_reply: Option<(u32, Vec<u8>)>,
}

impl SessionState {
    /// Record a frame at `now` and refill the bucket up to it.
    fn touch(&mut self, now: Duration, rate: f64) {
        let refill = now.saturating_sub(self.last_seen).as_secs_f64() * rate;
        self.spent = (self.spent - refill).max(0.0);
        self.last_seen = now;
    }

    /// Spend one token, if a bucket `burst` deep holds one.
    fn spend(&mut self, burst: f64) -> bool {
        let ok = burst - self.spent >= 1.0;
        if ok {
            self.spent += 1.0;
        }
        ok
    }
}

/// The server half of the session protocol: owns every session's row
/// and applies [`Request`]s to a hosted deployment.
///
/// Deliberately deterministic — no clocks, no randomness, sessions in
/// a `BTreeMap` — so the same host drives both the digest-stable sim
/// backend and the live daemon. Time is an input: the daemon passes
/// [`SessionHost::on_frame`] and [`SessionHost::on_tick`] the time
/// since it started, and every policy decision is made here from it.
#[derive(Default)]
pub struct SessionHost {
    sessions: BTreeMap<(PeerId, u32), SessionState>,
    cfg: ServerConfig,
    stats: ServerStats,
}

impl SessionHost {
    /// An empty host under the default [`ServerConfig`].
    pub fn new() -> SessionHost {
        SessionHost::default()
    }

    /// An empty host under `cfg`.
    pub fn with_config(cfg: ServerConfig) -> SessionHost {
        SessionHost {
            cfg,
            ..SessionHost::default()
        }
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Operational counters so far (`send_failures` stays 0 here).
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Handle one frame from `peer`, received `now` after the server
    /// started, and return the reply frame to send. A frame that does
    /// not decode gets no reply.
    ///
    /// A retransmit of the last cached seq replays its reply without
    /// re-executing. A `Hello` that would open a session past
    /// `max_sessions` is refused, and so is any request of a session
    /// whose token bucket is empty; neither refusal is cached, so a
    /// backed-off retry of the same seq is served. A session's row
    /// exists only once [`SessionHost::apply`] accepts its `Hello`.
    pub fn on_frame(
        &mut self,
        net: &mut Network,
        ws: &mut Workstation,
        now: Duration,
        peer: PeerId,
        bytes: &[u8],
    ) -> Option<Vec<u8>> {
        let Ok(req) = Request::decode(bytes) else {
            self.stats.malformed += 1;
            return None;
        };
        self.stats.requests += 1;
        let key = (peer, req.session);
        let refuse = |message: String| {
            let body = ResponseBody::Error { message };
            let (session, seq) = (req.session, req.seq);
            Some(Response { session, seq, body }.encode())
        };
        let opening = match self.sessions.get_mut(&key) {
            Some(state) => {
                state.touch(now, self.cfg.rate_limit);
                if let Some((seq, reply)) = &state.last_reply {
                    if *seq == req.seq {
                        self.stats.duplicates += 1;
                        return Some(reply.clone());
                    }
                }
                if !state.spend(self.cfg.burst) {
                    self.stats.rate_limited += 1;
                    return refuse("rate limited; slow down".to_owned());
                }
                false
            }
            None => {
                let hello = matches!(req.body, RequestBody::Hello { .. });
                if hello && self.sessions.len() >= self.cfg.max_sessions {
                    self.stats.refused_full += 1;
                    let max = self.cfg.max_sessions;
                    return refuse(format!("server full ({max} sessions); try again later"));
                }
                hello
            }
        };
        let resp = self.apply(net, ws, peer, &req);
        if matches!(resp.body, ResponseBody::Done { .. }) {
            self.stats.executions += 1;
        }
        let reply = resp.encode();
        // Bye and a refused Hello leave no row, so nothing is cached.
        if let Some(state) = self.sessions.get_mut(&key) {
            if opening {
                // The opening Hello draws the new row's first token.
                state.touch(now, self.cfg.rate_limit);
                state.spend(self.cfg.burst);
            }
            state.last_reply = Some((req.seq, reply.clone()));
        }
        Some(reply)
    }

    /// Evict every session quiet for longer than the idle timeout at
    /// `now`; its cached reply goes with it. Returns how many went.
    pub fn on_tick(&mut self, now: Duration) -> usize {
        let open = self.sessions.len();
        let timeout = self.cfg.idle_timeout;
        self.sessions
            .retain(|_, s| now.saturating_sub(s.last_seen) <= timeout);
        let evicted = open - self.sessions.len();
        self.stats.idle_evicted += evicted as u64;
        evicted
    }

    /// Close every open session at shutdown: the `Bye` frame to send
    /// each one's peer, in key order.
    pub fn on_shutdown(&mut self) -> Vec<(PeerId, Vec<u8>)> {
        std::mem::take(&mut self.sessions)
            .into_keys()
            .map(|(peer, session)| {
                let bye = Response {
                    session,
                    seq: 0,
                    body: ResponseBody::Bye,
                };
                (peer, bye.encode())
            })
            .collect()
    }

    /// Apply one request from `peer` against the hosted deployment and
    /// produce the response to send back. An accepted `Hello` opens the
    /// session's row and `Bye` removes it; no other policy runs here.
    pub fn apply(
        &mut self,
        net: &mut Network,
        ws: &mut Workstation,
        peer: PeerId,
        req: &Request,
    ) -> Response {
        let key = (peer, req.session);
        let reply = |body: ResponseBody| Response {
            session: req.session,
            seq: req.seq,
            body,
        };
        match &req.body {
            RequestBody::Hello { version } => {
                if *version != PROTOCOL_VERSION {
                    return reply(ResponseBody::Error {
                        message: format!(
                            "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                        ),
                    });
                }
                // A repeat Hello resets the login state only: the
                // bucket and the reply cache carry over.
                self.sessions.entry(key).or_default().cwd = None;
                reply(ResponseBody::Welcome {
                    version: PROTOCOL_VERSION,
                    nodes: net.node_count() as u64,
                    bridge: ws.bridge(),
                    now_ns: net.now().as_nanos(),
                })
            }
            RequestBody::Bye => {
                self.sessions.remove(&key);
                reply(ResponseBody::Bye)
            }
            body => {
                let Some(state) = self.sessions.get_mut(&key) else {
                    return reply(ResponseBody::Error {
                        message: "unknown session — send Hello first".to_owned(),
                    });
                };
                let cwd = |id: u16| {
                    let path = shell_path(&net.node(id).name);
                    reply(ResponseBody::Cwd { node: id, path })
                };
                let error = |message: String| reply(ResponseBody::Error { message });
                let no_cwd = || error(ExecError::NoCwd.to_string());
                match body {
                    RequestBody::Cd { node } => match net.resolve(node) {
                        Some(id) => {
                            state.cwd = Some(id);
                            cwd(id)
                        }
                        None => error(ExecError::NoSuchNode(node.clone()).to_string()),
                    },
                    RequestBody::Pwd => state.cwd.map_or_else(no_cwd, cwd),
                    RequestBody::Exec { command } => {
                        let resolved = match command.resolve(net) {
                            Ok(c) => c,
                            Err(e) => return error(e.0),
                        };
                        // Aim at the broadcast group for surveys, else at
                        // the *session's* current node — many sessions
                        // share one workstation, so the workstation's own
                        // cwd is never used here.
                        let request = match (resolved, state.cwd) {
                            (Command::GroupStatus, _) => CommandRequest::survey(),
                            (c, Some(id)) => CommandRequest::new(c).on(id),
                            (_, None) => return no_cwd(),
                        };
                        match ws.exec(net, request) {
                            Ok(execution) => {
                                let lines = output::render(net, &execution);
                                reply(ResponseBody::Done { execution, lines })
                            }
                            Err(e) => error(e.to_string()),
                        }
                    }
                    RequestBody::Run { nanos } => {
                        let Some(until) = net.now().as_nanos().checked_add(*nanos) else {
                            return error(format!("run: {nanos} ns is past the end of time"));
                        };
                        net.run_until(SimTime::from_nanos(until));
                        reply(ResponseBody::Ran {
                            now_ns: net.now().as_nanos(),
                        })
                    }
                    RequestBody::Report => reply(ResponseBody::Report {
                        json: ws.report(net).to_json(),
                    }),
                    RequestBody::ReportDiagnosis => reply(ResponseBody::Report {
                        json: ws.diagnosis_log().to_json(),
                    }),
                    // Hello/Bye are consumed by the session layer
                    // before dispatch ever reaches here; answer with a
                    // protocol error instead of aborting the host.
                    RequestBody::Hello { .. } | RequestBody::Bye => {
                        error(String::from("hello/bye are session-layer messages"))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install_suite;
    use lv_kernel::Network;
    use lv_radio::{Medium, Position, PropagationConfig};
    use lv_sim::SimDuration;

    fn tiny_net() -> (Network, Workstation) {
        let medium = Medium::new(
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            PropagationConfig::default(),
            42,
        );
        let mut net = Network::new(medium, 42);
        install_suite(&mut net);
        net.run_for(SimDuration::from_secs(10));
        let ws = Workstation::install(&mut net, 0);
        (net, ws)
    }

    fn req(session: u32, seq: u32, body: RequestBody) -> Request {
        Request { session, seq, body }
    }

    #[test]
    fn request_and_response_roundtrip_the_wire() {
        let r = req(
            7,
            3,
            RequestBody::Exec {
                command: ShellCommand::Ping {
                    dst: "192.168.0.2".into(),
                    rounds: 2,
                    length: 32,
                    port: None,
                },
            },
        );
        let back = Request::decode(&r.encode()).unwrap();
        assert_eq!(back, r);

        let resp = Response {
            session: 7,
            seq: 3,
            body: ResponseBody::Error {
                message: "nope".into(),
            },
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(b"xx").is_err());
        let framed = frame::encode(b"{\"not\": \"a request\"}");
        assert!(Request::decode(&framed).is_err());
    }

    #[test]
    fn hello_cd_exec_bye_lifecycle() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        let peer: PeerId = 9;

        // Commands before Hello are rejected.
        let r = host.apply(&mut net, &mut ws, peer, &req(1, 0, RequestBody::Pwd));
        assert!(matches!(r.body, ResponseBody::Error { .. }));

        let r = host.apply(
            &mut net,
            &mut ws,
            peer,
            &req(
                1,
                1,
                RequestBody::Hello {
                    version: PROTOCOL_VERSION,
                },
            ),
        );
        let ResponseBody::Welcome { nodes, bridge, .. } = r.body else {
            panic!("expected Welcome, got {r:?}");
        };
        assert_eq!(nodes, 2);
        assert_eq!(bridge, 0);

        let r = host.apply(
            &mut net,
            &mut ws,
            peer,
            &req(
                1,
                2,
                RequestBody::Cd {
                    node: "192.168.0.1".into(),
                },
            ),
        );
        let ResponseBody::Cwd { node, ref path } = r.body else {
            panic!("expected Cwd, got {r:?}");
        };
        assert_eq!(node, 0);
        assert!(path.ends_with("192.168.0.1"), "{path}");

        let r = host.apply(
            &mut net,
            &mut ws,
            peer,
            &req(
                1,
                3,
                RequestBody::Exec {
                    command: ShellCommand::Ping {
                        dst: "192.168.0.2".into(),
                        rounds: 1,
                        length: 32,
                        port: None,
                    },
                },
            ),
        );
        let ResponseBody::Done { execution, lines } = r.body else {
            panic!("expected Done, got {r:?}");
        };
        // The command runs *on* the session's cwd (node 0); the ping
        // destination lives inside the command itself.
        assert_eq!(execution.target, 0);
        assert!(!lines.is_empty());

        let r = host.apply(&mut net, &mut ws, peer, &req(1, 4, RequestBody::Bye));
        assert!(matches!(r.body, ResponseBody::Bye));
        assert_eq!(host.session_count(), 0);
    }

    #[test]
    fn sessions_have_independent_cwds() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        for (peer, name) in [(1u64, "192.168.0.1"), (2u64, "192.168.0.2")] {
            host.apply(
                &mut net,
                &mut ws,
                peer,
                &req(
                    1,
                    0,
                    RequestBody::Hello {
                        version: PROTOCOL_VERSION,
                    },
                ),
            );
            host.apply(
                &mut net,
                &mut ws,
                peer,
                &req(1, 1, RequestBody::Cd { node: name.into() }),
            );
        }
        let r1 = host.apply(&mut net, &mut ws, 1, &req(1, 2, RequestBody::Pwd));
        let r2 = host.apply(&mut net, &mut ws, 2, &req(1, 2, RequestBody::Pwd));
        let (ResponseBody::Cwd { node: n1, .. }, ResponseBody::Cwd { node: n2, .. }) =
            (r1.body, r2.body)
        else {
            panic!("expected two Cwd responses");
        };
        assert_eq!((n1, n2), (0, 1));
    }

    #[test]
    fn version_mismatch_is_refused() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        let r = host.apply(
            &mut net,
            &mut ws,
            1,
            &req(1, 0, RequestBody::Hello { version: 999 }),
        );
        assert!(matches!(r.body, ResponseBody::Error { .. }));
        assert_eq!(host.session_count(), 0);
    }

    #[test]
    fn exec_without_cd_reports_no_cwd() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        host.apply(
            &mut net,
            &mut ws,
            1,
            &req(
                1,
                0,
                RequestBody::Hello {
                    version: PROTOCOL_VERSION,
                },
            ),
        );
        let r = host.apply(
            &mut net,
            &mut ws,
            1,
            &req(
                1,
                1,
                RequestBody::Exec {
                    command: ShellCommand::Status,
                },
            ),
        );
        let ResponseBody::Error { message } = r.body else {
            panic!("expected Error");
        };
        assert!(message.contains("cd"), "{message}");
    }

    /// Open session 1 on a fresh tiny world, `cd` into node 0, and
    /// apply `body` as its third request.
    fn after_login(body: RequestBody) -> (Network, ResponseBody) {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        for (seq, login) in [(1, hello()), (2, cd())] {
            host.apply(&mut net, &mut ws, PEER, &req(1, seq, login));
        }
        let r = host.apply(&mut net, &mut ws, PEER, &req(1, 3, body));
        (net, r.body)
    }

    fn update(period_ms: u64) -> RequestBody {
        RequestBody::Exec {
            command: ShellCommand::Update { period_ms },
        }
    }

    #[test]
    fn update_to_a_zero_period_is_refused() {
        let (net, r) = after_login(update(0));
        assert!(matches!(r, ResponseBody::Error { .. }), "{r:?}");
        let period = net.node(0).stack.config().beacon_period;
        assert_eq!(period, SimDuration::from_secs(2));
    }

    #[test]
    fn update_to_a_period_the_wire_cannot_carry_is_refused() {
        // Past u32::MAX ms; from 18_446_744_073_710 ms on, the period
        // does not even fit `SimDuration`.
        for period_ms in [1 << 32, 18_446_744_073_710, u64::MAX] {
            let (net, r) = after_login(update(period_ms));
            assert!(matches!(r, ResponseBody::Error { .. }), "{r:?}");
            let period = net.node(0).stack.config().beacon_period;
            assert_eq!(period, SimDuration::from_secs(2));
        }
        let (_, r) = after_login(update(u64::from(u32::MAX)));
        assert!(matches!(r, ResponseBody::Done { .. }), "{r:?}");
    }

    #[test]
    fn run_past_the_end_of_time_is_refused() {
        let (net, r) = after_login(RequestBody::Run { nanos: u64::MAX });
        assert!(matches!(r, ResponseBody::Error { .. }), "{r:?}");
        let room = u64::MAX - net.now().as_nanos();
        let (_, r) = after_login(RequestBody::Run { nanos: room + 1 });
        assert!(matches!(r, ResponseBody::Error { .. }), "{r:?}");
    }

    #[test]
    fn report_diagnosis_returns_an_empty_log_when_unarmed() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        host.apply(
            &mut net,
            &mut ws,
            1,
            &req(
                1,
                0,
                RequestBody::Hello {
                    version: PROTOCOL_VERSION,
                },
            ),
        );
        let r = host.apply(
            &mut net,
            &mut ws,
            1,
            &req(1, 1, RequestBody::ReportDiagnosis),
        );
        let ResponseBody::Report { json } = r.body else {
            panic!("expected Report, got {:?}", r.body);
        };
        let log = crate::diagnose::DiagnosisLog::from_json(&json).expect("parseable log");
        assert_eq!(log.observations, 0);
        assert!(log.episodes.is_empty());
    }

    const PEER: PeerId = 1;

    fn hello() -> RequestBody {
        RequestBody::Hello {
            version: PROTOCOL_VERSION,
        }
    }

    fn cd() -> RequestBody {
        RequestBody::Cd {
            node: "192.168.0.1".into(),
        }
    }

    /// One request through `on_frame` at `now`, its reply decoded.
    fn on(
        host: &mut SessionHost,
        (net, ws): &mut (Network, Workstation),
        now: Duration,
        r: Request,
    ) -> ResponseBody {
        let reply = host.on_frame(net, ws, now, PEER, &r.encode());
        Response::decode(&reply.expect("a reply")).unwrap().body
    }

    fn rate_limited(body: &ResponseBody) -> bool {
        matches!(body, ResponseBody::Error { message } if message.contains("rate limited"))
    }

    #[test]
    fn bucket_refills_one_token_per_interval() {
        // 4 tokens/s refill one token every 250 ms, exactly in binary.
        let mut world = tiny_net();
        let mut host = SessionHost::with_config(ServerConfig {
            rate_limit: 4.0,
            burst: 1.0,
            ..ServerConfig::default()
        });
        // Each opening Hello spends its session's only token at t = 0.
        for session in [1, 2] {
            let r = on(
                &mut host,
                &mut world,
                Duration::ZERO,
                req(session, 1, hello()),
            );
            assert!(matches!(r, ResponseBody::Welcome { .. }), "{r:?}");
        }
        // A refused attempt refills part of the bucket too, so the two
        // sides of the boundary use separate sessions.
        let interval = Duration::from_millis(250);
        let r = on(&mut host, &mut world, interval, req(1, 2, cd()));
        assert!(matches!(r, ResponseBody::Cwd { .. }), "{r:?}");
        let early = interval - Duration::from_nanos(1);
        let r = on(&mut host, &mut world, early, req(2, 2, cd()));
        assert!(rate_limited(&r), "{r:?}");
        assert_eq!(host.stats().rate_limited, 1);
    }

    #[test]
    fn idle_eviction_is_strictly_after_the_timeout() {
        let mut world = tiny_net();
        let timeout = Duration::from_secs(30);
        let mut host = SessionHost::with_config(ServerConfig {
            idle_timeout: timeout,
            ..ServerConfig::default()
        });
        let seen = Duration::from_secs(5);
        on(&mut host, &mut world, seen, req(1, 1, hello()));
        assert_eq!(host.on_tick(seen + timeout), 0);
        assert_eq!(host.session_count(), 1);
        assert_eq!(host.on_tick(seen + timeout + Duration::from_nanos(1)), 1);
        assert_eq!(host.session_count(), 0);
        assert_eq!(host.stats().idle_evicted, 1);
    }

    #[test]
    fn repeated_hello_resets_the_cwd_but_not_the_bucket() {
        let mut world = tiny_net();
        let mut host = SessionHost::with_config(ServerConfig {
            rate_limit: 1e-9,
            burst: 2.0,
            ..ServerConfig::default()
        });
        let limited: Vec<bool> = (1..=6)
            .map(|seq| {
                let body = if seq % 2 == 1 {
                    hello()
                } else {
                    RequestBody::Pwd
                };
                let now = Duration::from_millis(u64::from(seq));
                rate_limited(&on(&mut host, &mut world, now, req(1, seq, body)))
            })
            .collect();
        assert_eq!(limited, [false, false, true, true, true, true]);
        assert_eq!(host.stats().rate_limited, 4);

        let mut host = SessionHost::new();
        let t = Duration::ZERO;
        on(&mut host, &mut world, t, req(1, 1, hello()));
        on(&mut host, &mut world, t, req(1, 2, cd()));
        on(&mut host, &mut world, t, req(1, 3, hello()));
        let r = on(&mut host, &mut world, t, req(1, 4, RequestBody::Pwd));
        assert!(matches!(r, ResponseBody::Error { .. }), "{r:?}");
    }

    #[test]
    fn retransmit_replays_cached_bytes_without_executing() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        let t = Duration::ZERO;
        for r in [req(1, 1, hello()), req(1, 2, cd())] {
            host.on_frame(&mut net, &mut ws, t, PEER, &r.encode());
        }
        let status = req(
            1,
            3,
            RequestBody::Exec {
                command: ShellCommand::Status,
            },
        )
        .encode();
        let first = host.on_frame(&mut net, &mut ws, t, PEER, &status);
        let later = Duration::from_secs(1);
        let again = host.on_frame(&mut net, &mut ws, later, PEER, &status);
        assert_eq!(first, again);
        assert_eq!(host.stats().executions, 1);
        assert_eq!(host.stats().duplicates, 1);
    }

    #[test]
    fn retransmit_after_eviction_is_served_fresh() {
        let (mut net, mut ws) = tiny_net();
        let mut host = SessionHost::new();
        let hello = req(1, 1, hello()).encode();
        let first = host.on_frame(&mut net, &mut ws, Duration::ZERO, PEER, &hello);
        // Virtual time moves, so a fresh Welcome differs from the cached one.
        net.run_for(SimDuration::from_secs(1));
        let seen = Duration::from_secs(1);
        let replay = host.on_frame(&mut net, &mut ws, seen, PEER, &hello);
        assert_eq!(replay, first);
        assert_eq!(host.stats().duplicates, 1);

        let gone = seen + ServerConfig::default().idle_timeout + Duration::from_nanos(1);
        assert_eq!(host.on_tick(gone), 1);
        let fresh = host.on_frame(&mut net, &mut ws, gone, PEER, &hello);
        assert_ne!(fresh, first, "the cached reply outlived its session");
        let fresh = Response::decode(&fresh.expect("a reply")).unwrap();
        assert!(matches!(fresh.body, ResponseBody::Welcome { .. }));
        assert_eq!(host.stats().duplicates, 1);
        assert_eq!(host.session_count(), 1);
    }
}
