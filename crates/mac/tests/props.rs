//! Property tests for frames, CRC, and CSMA robustness.

use lv_mac::{crc16_ccitt, verify_crc, CsmaConfig, CsmaMachine, Frame, FrameKind, MacAction};
use lv_sim::SimRng;
use proptest::prelude::*;

/// One externally observable stimulus for the CSMA machine.
#[derive(Debug, Clone, Copy)]
enum Stim {
    Start,
    Cca { token: u64, clear: bool },
    TxDone,
    Ack { src: u16, seq: u8 },
    AckTimeout { token: u64 },
}

fn arb_stim() -> impl Strategy<Value = Stim> {
    prop_oneof![
        Just(Stim::Start),
        (0u64..8, any::<bool>()).prop_map(|(token, clear)| Stim::Cca { token, clear }),
        Just(Stim::TxDone),
        (1u16..4, 0u8..4).prop_map(|(src, seq)| Stim::Ack { src, seq }),
        (0u64..8).prop_map(|token| Stim::AckTimeout { token }),
    ]
}

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Data),
        Just(FrameKind::Ack),
        Just(FrameKind::Beacon),
    ]
}

proptest! {
    /// Every well-formed frame round-trips exactly.
    #[test]
    fn frame_round_trip(
        kind in arb_kind(),
        src in any::<u16>(),
        dst in any::<u16>(),
        seq in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..=118),
    ) {
        let f = Frame { kind, src, dst, seq, payload: payload.into() };
        let bytes = f.encode();
        prop_assert_eq!(bytes.len(), f.wire_len());
        let decoded = Frame::decode(&bytes).expect("round trip");
        prop_assert_eq!(decoded, f);
    }

    /// Any single-byte corruption is either detected (decode fails) —
    /// never silently accepted as a different frame with matching CRC.
    #[test]
    fn frame_single_corruption_detected(
        src in any::<u16>(),
        dst in any::<u16>(),
        seq in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..40),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let f = Frame::data(src, dst, seq, payload);
        let mut bytes = f.encode();
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        // CRC-16 detects all single-bit errors.
        prop_assert!(Frame::decode(&bytes).is_none());
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn frame_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        let _ = Frame::decode(&bytes);
    }

    /// CRC verification accepts exactly what was CRC'd.
    #[test]
    fn crc_round_trip(data in proptest::collection::vec(any::<u8>(), 0..120)) {
        let mut buf = data.clone();
        let crc = crc16_ccitt(&buf);
        buf.extend_from_slice(&crc.to_be_bytes());
        prop_assert!(verify_crc(&buf));
    }

    /// CRC is a function: equal inputs, equal outputs; and it changes
    /// for appended data (no trivial length-extension fixed point).
    #[test]
    fn crc_deterministic(data in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assert_eq!(crc16_ccitt(&data), crc16_ccitt(&data));
    }

    /// Arbitrary stimulus sequences — spurious acks, stale timers,
    /// out-of-order CCA results, starts while busy — must never panic
    /// the CSMA machine. A state/frame mismatch surfaces as
    /// `MacAction::Anomaly`, never as an abort, so one confused node
    /// cannot take the whole simulation down.
    #[test]
    fn csma_never_panics(
        seed in any::<u64>(),
        stims in proptest::collection::vec(arb_stim(), 1..120),
    ) {
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = SimRng::stream(seed, 7);
        for stim in stims {
            let actions = match stim {
                Stim::Start => m.start(Frame::data(1, 2, 5, vec![0; 8]), &mut r),
                Stim::Cca { token, clear } => m.on_cca(token, clear, &mut r),
                Stim::TxDone => m.on_tx_done(),
                Stim::Ack { src, seq } => m.on_ack(src, seq),
                Stim::AckTimeout { token } => m.on_ack_timeout(token, &mut r),
            };
            let anomalous = actions
                .iter()
                .any(|a| matches!(a, MacAction::Anomaly { .. }));
            if anomalous && !matches!(stim, Stim::Start) {
                // Recovery from a spurious callback leaves the machine
                // idle and restartable. (A start-while-busy anomaly
                // instead keeps the in-flight frame, so it stays busy.)
                prop_assert!(m.is_idle());
            }
        }
        // However the sequence ended, the machine still accepts work.
        if m.is_idle() {
            let a = m.start(Frame::data(1, 2, 9, vec![]), &mut r);
            let restarted = matches!(a.as_slice(), [MacAction::ScheduleCca { .. }]);
            prop_assert!(restarted);
        }
    }
}
