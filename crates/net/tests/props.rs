//! Property tests for the network layer: packets, padding, beacons,
//! ports, and the link estimator.

use lv_net::beacon::{Beacon, MAX_LINK_ENTRIES, MAX_NAME_LEN};
use lv_net::estimator::LinkEstimator;
use lv_net::packet::{NetHeader, NetPacket, PacketFlags, Port, PAYLOAD_AREA};
use lv_net::padding::HopQuality;
use lv_net::ports::PortMap;
use lv_radio::units::Position;
use proptest::prelude::*;

fn arb_header(padding: bool) -> impl Strategy<Value = NetHeader> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        1u8..,
    )
        .prop_map(move |(origin, dst, port, app_port, seq, ttl)| NetHeader {
            flags: PacketFlags {
                padding_enabled: padding,
            },
            origin,
            dst,
            port: Port(port),
            app_port: Port(app_port),
            seq,
            ttl,
        })
}

proptest! {
    /// Packets round-trip for any payload within the area.
    #[test]
    fn packet_round_trip(
        header in arb_header(true),
        payload in proptest::collection::vec(any::<u8>(), 0..=PAYLOAD_AREA),
        hops in proptest::collection::vec((50u8..=110, -50i8..=30), 0..40),
    ) {
        let mut p = NetPacket::new(header, payload);
        for (lqi, rssi) in hops {
            p.append_hop_quality(HopQuality { lqi, rssi });
        }
        let decoded = NetPacket::decode(&p.encode()).expect("round trip");
        prop_assert_eq!(decoded, p);
    }

    /// The padding invariants hold under ANY append sequence: payload
    /// bytes never change, payload+padding never exceeds the 64-byte
    /// area, and the number of recorded hops is exactly
    /// min(appends, floor((64 − payload) / 2)).
    #[test]
    fn padding_invariants(
        payload_len in 0usize..=PAYLOAD_AREA,
        appends in 0usize..60,
    ) {
        let header = NetHeader {
            flags: PacketFlags { padding_enabled: true },
            origin: 1, dst: 2, port: Port(10), app_port: Port(2), seq: 0, ttl: 9,
        };
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let mut p = NetPacket::new(header, payload.clone());
        let mut accepted = 0;
        for i in 0..appends {
            if p.append_hop_quality(HopQuality { lqi: 100, rssi: i as i8 }) {
                accepted += 1;
            }
        }
        let budget = (PAYLOAD_AREA - payload_len) / HopQuality::WIRE_BYTES;
        prop_assert_eq!(accepted, appends.min(budget));
        prop_assert_eq!(p.hop_qualities().len(), accepted);
        prop_assert_eq!(&p.payload, &payload, "payload mutated by padding");
        prop_assert!(p.payload.len() + p.padding.len() <= PAYLOAD_AREA);
    }

    /// The packet decoder never panics on arbitrary input.
    #[test]
    fn packet_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = NetPacket::decode(&bytes);
    }

    /// Beacons round-trip (within field caps) and never exceed the
    /// payload area.
    #[test]
    fn beacon_round_trip(
        seq in any::<u16>(),
        x in -1000.0f64..1000.0,
        y in -1000.0f64..1000.0,
        tree in any::<u8>(),
        name in "[a-z0-9.]{0,15}",
        links in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..=MAX_LINK_ENTRIES),
    ) {
        let bytes = Beacon::encode(seq, Position::new(x, y), tree, &name, links.iter().copied());
        prop_assert!(bytes.len() <= PAYLOAD_AREA);
        let d = Beacon::parse(&bytes).expect("round trip");
        prop_assert_eq!(d.seq, seq);
        prop_assert_eq!(d.tree_hops, tree);
        prop_assert_eq!(d.name, &name[..name.len().min(MAX_NAME_LEN)]);
        prop_assert_eq!(d.links().collect::<Vec<_>>(), links);
        prop_assert!((d.position.x - x).abs() < 1e-3);
    }

    /// The beacon decoder never panics on arbitrary input.
    #[test]
    fn beacon_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
        let _ = Beacon::parse(&bytes).map(|b| b.links().count());
    }

    /// Port-map invariant: after any subscribe/unsubscribe sequence, a
    /// port maps to at most one pid and lookups agree with the last
    /// successful operation.
    #[test]
    fn port_map_exclusive(ops in proptest::collection::vec((any::<u8>(), 1u32..8, any::<bool>()), 0..60)) {
        let mut pm = PortMap::new();
        let mut model = std::collections::BTreeMap::<u8, u32>::new();
        for (port, pid, subscribe) in ops {
            if subscribe {
                let res = pm.subscribe(Port(port), pid);
                match model.get(&port) {
                    Some(&holder) if holder != pid => prop_assert!(res.is_err()),
                    _ => {
                        prop_assert!(res.is_ok());
                        model.insert(port, pid);
                    }
                }
            } else {
                pm.unsubscribe(Port(port));
                model.remove(&port);
            }
        }
        for (&port, &pid) in &model {
            prop_assert_eq!(pm.lookup(Port(port)), Some(pid));
        }
        prop_assert_eq!(pm.len(), model.len());
    }

    /// The estimator's quality is always within [0, 1] no matter what
    /// sequence-number stream it sees.
    #[test]
    fn estimator_bounded(seqs in proptest::collection::vec(any::<u16>(), 0..200)) {
        let mut e = LinkEstimator::new();
        for s in seqs {
            e.on_beacon(s);
            let q = e.quality();
            prop_assert!((0.0..=1.0).contains(&q), "q = {q}");
        }
    }
}
