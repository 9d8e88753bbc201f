//! The lv-serve driver: the transport, the threads and the clock
//! around the session core.
//!
//! [`SessionHost`] owns every session and every live-operations
//! decision, with time as an input. A [`Server`] reads the clock once
//! per frame, calls [`SessionHost::on_frame`] and sends the reply, and
//! between frames passes the time to [`SessionHost::on_tick`]. It
//! counts only send failures, which only it sees.
//! `Server<UdpTransport>` is the daemon; `Server<SimTransport>` is the
//! deterministic in-process backend the parity harness replays against.

use liteview::session::{ServerConfig, ServerStats, SessionHost};
use liteview::transport::{PeerId, Transport, TransportError};
use liteview::Workstation;
use lv_kernel::Network;
use std::time::{Duration, Instant};

/// A diagnosis-session server over any [`Transport`] backend.
pub struct Server<T: Transport> {
    transport: T,
    host: SessionHost,
    net: Network,
    ws: Workstation,
    started: Instant,
    send_failures: u64,
}

impl<T: Transport> Server<T> {
    /// Host `net`/`ws` behind `transport`.
    pub fn new(net: Network, ws: Workstation, transport: T, cfg: ServerConfig) -> Server<T> {
        Server {
            transport,
            host: SessionHost::with_config(cfg),
            net,
            ws,
            started: Instant::now(),
            send_failures: 0,
        }
    }

    /// Operational counters so far.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            send_failures: self.send_failures,
            ..self.host.stats()
        }
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
        let now = self.started.elapsed();
        if let Some(reply) = self
            .host
            .on_frame(&mut self.net, &mut self.ws, now, peer, &frame)
        {
            self.send(peer, &reply);
        }
        Ok(true)
    }

    /// Evict sessions idle for longer than the configured timeout.
    /// Returns how many were evicted.
    pub fn sweep_idle(&mut self) -> usize {
        self.host.on_tick(self.started.elapsed())
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
        for (peer, bye) in self.host.on_shutdown() {
            self.send(peer, &bye);
        }
        self.transport.shutdown();
        self.stats()
    }

    fn send(&mut self, peer: PeerId, bytes: &[u8]) {
        if self.transport.send(peer, bytes).is_err() {
            self.send_failures += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liteview::session::{Request, RequestBody, Response, ResponseBody, PROTOCOL_VERSION};
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
    fn refused_hello_holds_no_session_slot() {
        let (mut server, mut client) = sim_server(ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        });
        for session in [1, 2] {
            let bad = Request {
                session,
                seq: 1,
                body: RequestBody::Hello { version: 999 },
            };
            let r = call(&mut client, &mut server, &bad);
            assert!(matches!(r.body, ResponseBody::Error { .. }), "{r:?}");
        }
        let r = call(&mut client, &mut server, &hello(3));
        assert!(matches!(r.body, ResponseBody::Welcome { .. }), "{r:?}");
        assert_eq!(server.session_count(), 1);
        assert_eq!(server.stats().refused_full, 0);
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
