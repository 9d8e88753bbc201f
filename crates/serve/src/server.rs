//! The lv-serve session multiplexer.
//!
//! One [`Server`] owns a hosted deployment (network + workstation) and
//! a [`Transport`], and drives the shared [`SessionHost`] dispatcher
//! for every session that talks to it. On top of the deterministic
//! protocol core it layers the live-operations policy:
//!
//! * **per-session rate limits** — a token bucket per session; over-
//!   limit requests get an `Error` response without touching the
//!   deployment;
//! * **idle timeout** — sessions that go quiet are evicted;
//! * **duplicate suppression** — the last response per session is
//!   cached by sequence number, so a client retransmitting a lost
//!   request gets the original answer instead of a re-execution. Only
//!   successful/terminal responses are cached; transient refusals
//!   (rate limiting) are not, so a backed-off retry of the same seq
//!   executes normally;
//! * **graceful shutdown** — pending requests are drained, every open
//!   session is sent a `Bye`, and the transport is torn down.
//!
//! The server is generic over its transport: `Server<UdpTransport>` is
//! the daemon, `Server<SimTransport>` is the deterministic in-process
//! backend the parity harness replays against.

use liteview::session::{Request, RequestBody, Response, ResponseBody, SessionHost};
use liteview::transport::{PeerId, Transport, TransportError};
use liteview::Workstation;
use lv_kernel::Network;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

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
    /// backpressure).
    pub send_failures: u64,
    /// Sessions refused because the server was full.
    pub refused_full: u64,
}

struct SessionMeta {
    last_seen: Instant,
    tokens: f64,
    refilled: Instant,
    last_reply: Option<(u32, Vec<u8>)>,
}

/// A diagnosis-session server over any [`Transport`] backend.
pub struct Server<T: Transport> {
    transport: T,
    host: SessionHost,
    net: Network,
    ws: Workstation,
    cfg: ServerConfig,
    meta: BTreeMap<(PeerId, u32), SessionMeta>,
    stats: ServerStats,
}

impl<T: Transport> Server<T> {
    /// Host `net`/`ws` behind `transport`.
    pub fn new(net: Network, ws: Workstation, transport: T, cfg: ServerConfig) -> Server<T> {
        Server {
            transport,
            host: SessionHost::new(),
            net,
            ws,
            cfg,
            meta: BTreeMap::new(),
            stats: ServerStats::default(),
        }
    }

    /// Operational counters so far.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Sessions currently open.
    pub fn session_count(&self) -> usize {
        self.host.session_count()
    }

    /// The transport (e.g. to read its bound address or drop counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Process at most one incoming frame, waiting up to `wait` for it.
    /// Returns whether a frame was processed.
    pub fn poll(&mut self, wait: Option<Duration>) -> Result<bool, TransportError> {
        let Some((peer, frame)) = self.transport.recv(wait)? else {
            return Ok(false);
        };
        let req = match Request::decode(&frame) {
            Ok(r) => r,
            Err(_) => {
                self.stats.malformed += 1;
                return Ok(true);
            }
        };
        self.stats.requests += 1;
        let key = (peer, req.session);
        let now = Instant::now();

        // Retransmit? Replay the cached response without re-executing.
        if let Some(m) = self.meta.get_mut(&key) {
            m.last_seen = now;
            if let Some((seq, bytes)) = &m.last_reply {
                if *seq == req.seq {
                    self.stats.duplicates += 1;
                    let bytes = bytes.clone();
                    self.send_raw(peer, &bytes);
                    return Ok(true);
                }
            }
        }

        // Admission control for new sessions.
        if let RequestBody::Hello { .. } = req.body {
            if !self.meta.contains_key(&key) && self.meta.len() >= self.cfg.max_sessions {
                self.stats.refused_full += 1;
                let resp = Response {
                    session: req.session,
                    seq: req.seq,
                    body: ResponseBody::Error {
                        message: format!(
                            "server full ({} sessions); try again later",
                            self.cfg.max_sessions
                        ),
                    },
                };
                self.send_response(key, &resp, false);
                return Ok(true);
            }
            self.meta.entry(key).or_insert(SessionMeta {
                last_seen: now,
                tokens: self.cfg.burst,
                refilled: now,
                last_reply: None,
            });
        }

        // Token-bucket rate limiting (sessions only; stray requests
        // fall through to the host, which rejects them).
        if let Some(m) = self.meta.get_mut(&key) {
            let elapsed = now.duration_since(m.refilled).as_secs_f64();
            m.tokens = (m.tokens + elapsed * self.cfg.rate_limit).min(self.cfg.burst);
            m.refilled = now;
            if m.tokens < 1.0 {
                self.stats.rate_limited += 1;
                let resp = Response {
                    session: req.session,
                    seq: req.seq,
                    body: ResponseBody::Error {
                        message: "rate limited; slow down".to_owned(),
                    },
                };
                // Transient refusal: do NOT cache it as last_reply, or a
                // client that backs off and retries the same seq would
                // replay the stale error forever instead of executing.
                self.send_response(key, &resp, false);
                return Ok(true);
            }
            m.tokens -= 1.0;
        }

        let resp = self.host.apply(&mut self.net, &mut self.ws, peer, &req);
        if matches!(resp.body, ResponseBody::Done { .. }) {
            self.stats.executions += 1;
        }
        let closing = matches!(req.body, RequestBody::Bye);
        self.send_response(key, &resp, !closing);
        if closing {
            self.meta.remove(&key);
        }
        Ok(true)
    }

    /// Evict sessions idle for longer than the configured timeout.
    /// Returns how many were evicted.
    pub fn sweep_idle(&mut self) -> usize {
        let now = Instant::now();
        let timeout = self.cfg.idle_timeout;
        let dead: Vec<(PeerId, u32)> = self
            .meta
            .iter()
            .filter(|(_, m)| now.duration_since(m.last_seen) > timeout)
            .map(|(k, _)| *k)
            .collect();
        for key in &dead {
            self.meta.remove(key);
            self.host.evict(key.0, key.1);
            self.stats.idle_evicted += 1;
        }
        dead.len()
    }

    /// Serve until `stop()` returns true, then shut down gracefully.
    pub fn run_until(&mut self, mut stop: impl FnMut() -> bool) -> ServerStats {
        while !stop() {
            match self.poll(Some(Duration::from_millis(20))) {
                Ok(_) => {}
                Err(TransportError::Closed) => break,
                Err(_) => {}
            }
            self.sweep_idle();
        }
        self.finish()
    }

    /// Graceful shutdown: drain pending requests, notify every open
    /// session, tear the transport down, and report final stats.
    pub fn finish(&mut self) -> ServerStats {
        // Drain whatever is already queued (bounded, in case a client
        // keeps talking).
        for _ in 0..1024 {
            match self.poll(None) {
                Ok(true) => {}
                _ => break,
            }
        }
        for (peer, session) in self.host.session_keys() {
            let bye = Response {
                session,
                seq: 0,
                body: ResponseBody::Bye,
            };
            self.send_raw(peer, &bye.encode());
            self.host.evict(peer, session);
        }
        self.meta.clear();
        self.transport.shutdown();
        self.stats
    }

    fn send_response(&mut self, key: (PeerId, u32), resp: &Response, cache: bool) {
        let bytes = resp.encode();
        if cache {
            if let Some(m) = self.meta.get_mut(&key) {
                m.last_reply = Some((resp.seq, bytes.clone()));
            }
        }
        self.send_raw(key.0, &bytes);
    }

    fn send_raw(&mut self, peer: PeerId, bytes: &[u8]) {
        if self.transport.send(peer, bytes).is_err() {
            self.stats.send_failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteview::session::PROTOCOL_VERSION;
    use liteview::shell::ShellCommand;
    use liteview::transport::{frame, SimTransport, SIM_PEER};
    use lv_testbed::{Scenario, ScenarioConfig, Topology};

    fn sim_server(cfg: ServerConfig) -> (Server<SimTransport>, SimTransport) {
        let scenario = Scenario::build(ScenarioConfig::new(
            Topology::Line { n: 2, spacing: 5.0 },
            11,
        ));
        let (server_end, client_end) = SimTransport::pair(64);
        (
            Server::new(scenario.net, scenario.ws, server_end, cfg),
            client_end,
        )
    }

    fn call(
        client: &mut SimTransport,
        server: &mut Server<SimTransport>,
        req: &Request,
    ) -> Response {
        client.send(SIM_PEER, &req.encode()).unwrap();
        while server.poll(None).unwrap() {}
        let (_, bytes) = client.recv(None).unwrap().expect("response queued");
        Response::decode(&bytes).unwrap()
    }

    fn hello(session: u32) -> Request {
        Request {
            session,
            seq: 1,
            body: RequestBody::Hello {
                version: PROTOCOL_VERSION,
            },
        }
    }

    #[test]
    fn serves_a_session_over_sim_transport() {
        let (mut server, mut client) = sim_server(ServerConfig::default());
        let r = call(&mut client, &mut server, &hello(1));
        assert!(matches!(r.body, ResponseBody::Welcome { .. }));

        let r = call(
            &mut client,
            &mut server,
            &Request {
                session: 1,
                seq: 2,
                body: RequestBody::Cd {
                    node: "192.168.0.1".into(),
                },
            },
        );
        assert!(matches!(r.body, ResponseBody::Cwd { node: 0, .. }));

        let r = call(
            &mut client,
            &mut server,
            &Request {
                session: 1,
                seq: 3,
                body: RequestBody::Exec {
                    command: ShellCommand::Status,
                },
            },
        );
        assert!(matches!(r.body, ResponseBody::Done { .. }), "{r:?}");
        assert_eq!(server.stats().executions, 1);
    }

    #[test]
    fn duplicate_requests_replay_cached_response() {
        let (mut server, mut client) = sim_server(ServerConfig::default());
        call(&mut client, &mut server, &hello(1));
        let exec = Request {
            session: 1,
            seq: 2,
            body: RequestBody::Exec {
                command: ShellCommand::GetPower,
            },
        };
        // cd first.
        call(
            &mut client,
            &mut server,
            &Request {
                session: 1,
                seq: 5,
                body: RequestBody::Cd {
                    node: "192.168.0.1".into(),
                },
            },
        );
        let first = call(&mut client, &mut server, &exec);
        let replay = call(&mut client, &mut server, &exec);
        assert_eq!(first, replay);
        assert_eq!(server.stats().executions, 1, "no re-execution");
        assert_eq!(server.stats().duplicates, 1);
    }

    #[test]
    fn rate_limiter_refuses_a_burst() {
        let (mut server, mut client) = sim_server(ServerConfig {
            rate_limit: 1.0,
            burst: 2.0,
            ..ServerConfig::default()
        });
        call(&mut client, &mut server, &hello(1));
        let mut limited = 0;
        for seq in 2..8 {
            let r = call(
                &mut client,
                &mut server,
                &Request {
                    session: 1,
                    seq,
                    body: RequestBody::Pwd,
                },
            );
            if matches!(&r.body, ResponseBody::Error { message } if message.contains("rate")) {
                limited += 1;
            }
        }
        assert!(limited >= 4, "only {limited} of 6 were limited");
        assert_eq!(server.stats().rate_limited, limited);
    }

    #[test]
    fn rate_limit_error_is_not_cached_for_same_seq_retry() {
        let (mut server, mut client) = sim_server(ServerConfig {
            rate_limit: 20.0,
            burst: 1.0,
            ..ServerConfig::default()
        });
        // Hello consumes the only token in the bucket.
        call(&mut client, &mut server, &hello(1));
        let cd = Request {
            session: 1,
            seq: 2,
            body: RequestBody::Cd {
                node: "192.168.0.1".into(),
            },
        };
        let r = call(&mut client, &mut server, &cd);
        assert!(
            matches!(&r.body, ResponseBody::Error { message } if message.contains("rate")),
            "bucket should be exhausted: {r:?}"
        );
        // The well-behaved client backs off past a refill interval and
        // retries the SAME seq — it must execute, not replay the error.
        std::thread::sleep(Duration::from_millis(150));
        let r = call(&mut client, &mut server, &cd);
        assert!(matches!(r.body, ResponseBody::Cwd { .. }), "{r:?}");
        assert_eq!(
            server.stats().duplicates,
            0,
            "stale rate-limit error was replayed from the dup cache"
        );
    }

    #[test]
    fn max_sessions_is_enforced() {
        let (mut server, mut client) = sim_server(ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        });
        assert!(matches!(
            call(&mut client, &mut server, &hello(1)).body,
            ResponseBody::Welcome { .. }
        ));
        assert!(matches!(
            call(&mut client, &mut server, &hello(2)).body,
            ResponseBody::Welcome { .. }
        ));
        let r = call(&mut client, &mut server, &hello(3));
        assert!(
            matches!(&r.body, ResponseBody::Error { message } if message.contains("full")),
            "{r:?}"
        );
        assert_eq!(server.stats().refused_full, 1);
    }

    #[test]
    fn idle_sessions_are_swept() {
        let (mut server, mut client) = sim_server(ServerConfig {
            idle_timeout: Duration::from_millis(1),
            ..ServerConfig::default()
        });
        call(&mut client, &mut server, &hello(1));
        assert_eq!(server.session_count(), 1);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(server.sweep_idle(), 1);
        assert_eq!(server.session_count(), 0);
        assert_eq!(server.stats().idle_evicted, 1);
    }

    #[test]
    fn sweep_idle_evicts_sessions_holding_cached_replies() {
        let (mut server, mut client) = sim_server(ServerConfig {
            idle_timeout: Duration::from_millis(1),
            ..ServerConfig::default()
        });
        // Hello's Welcome is cached as the session's last_reply.
        call(&mut client, &mut server, &hello(1));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(server.sweep_idle(), 1);
        assert_eq!(server.session_count(), 0);
        // A same-seq retransmit after eviction must be served fresh —
        // the cached reply died with the session, not as a ghost dup.
        let again = call(&mut client, &mut server, &hello(1));
        assert!(matches!(again.body, ResponseBody::Welcome { .. }));
        assert_eq!(server.stats().duplicates, 0);
    }

    #[test]
    fn finish_notifies_open_sessions() {
        let (mut server, mut client) = sim_server(ServerConfig::default());
        call(&mut client, &mut server, &hello(1));
        server.finish();
        let (_, bytes) = client.recv(None).unwrap().expect("bye notice");
        let bye = Response::decode(&bytes).unwrap();
        assert!(matches!(bye.body, ResponseBody::Bye));
    }

    #[test]
    fn malformed_frames_are_counted_not_fatal() {
        let (mut server, mut client) = sim_server(ServerConfig::default());
        client.send(SIM_PEER, b"not a frame").unwrap();
        assert!(server.poll(None).unwrap());
        assert_eq!(server.stats().malformed, 1);
        // The server still serves afterwards.
        let r = call(&mut client, &mut server, &hello(1));
        assert!(matches!(r.body, ResponseBody::Welcome { .. }));
    }

    #[test]
    fn deeply_nested_frame_is_malformed_not_a_stack_overflow() {
        let (mut server, mut client) = sim_server(ServerConfig::default());
        client
            .send(SIM_PEER, &frame::encode(&[b'['; 100_000]))
            .unwrap();
        assert!(server.poll(None).unwrap());
        assert_eq!(server.stats().malformed, 1);
        // The same transport is served normally afterwards.
        let r = call(&mut client, &mut server, &hello(1));
        assert!(matches!(r.body, ResponseBody::Welcome { .. }), "{r:?}");
        let cd = Request {
            session: 1,
            seq: 2,
            body: RequestBody::Cd {
                node: "192.168.0.2".into(),
            },
        };
        let r = call(&mut client, &mut server, &cd);
        assert!(matches!(r.body, ResponseBody::Cwd { node: 1, .. }), "{r:?}");
        let ping = Request {
            session: 1,
            seq: 3,
            body: RequestBody::Exec {
                command: ShellCommand::Ping {
                    dst: "192.168.0.1".into(),
                    rounds: 1,
                    length: 32,
                    port: None,
                },
            },
        };
        let r = call(&mut client, &mut server, &ping);
        assert!(matches!(r.body, ResponseBody::Done { .. }), "{r:?}");
    }
}
