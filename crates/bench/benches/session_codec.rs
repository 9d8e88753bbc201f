//! The session codec on its own: what `lv-serve` pays per message to
//! turn `Request`/`Response` into framed JSON and back, apart from
//! executing the command.
//!
//! * `encode_ping_response` / `decode_ping_response`: the answer to a
//!   3-round `ping` across the eight-hop corridor (~16 KB of JSON, the
//!   execution record with its flight-recorder timeline);
//! * `decode_cd_256k`: a `Cd` request whose node name is a 256 KiB
//!   string, the shape of an oversized or hostile frame. Decoding must
//!   stay linear in its length.

use criterion::{criterion_group, criterion_main, Criterion};
use liteview::session::{Request, RequestBody, Response, ResponseBody};
use liteview::{output, CommandRequest};
use lv_net::packet::Port;
use lv_testbed::{Scenario, ScenarioConfig, Topology};
use std::hint::black_box;

fn ping_response() -> Response {
    let topo = Topology::Corridor {
        n: 9,
        spacing: 5.0,
        wall_loss_db: 40.0,
    };
    let mut s = Scenario::build(ScenarioConfig::new(topo, 42));
    s.ws.cd(&s.net, "192.168.0.1").unwrap();
    let execution =
        s.ws.exec(
            &mut s.net,
            CommandRequest::ping(8, 3, 32, Some(Port::GEOGRAPHIC)),
        )
        .unwrap();
    let lines = output::render(&s.net, &execution);
    Response {
        session: 1,
        seq: 3,
        body: ResponseBody::Done { execution, lines },
    }
}

fn bench(c: &mut Criterion) {
    let resp = ping_response();
    let wire = resp.encode();
    println!("corridor ping response: {} bytes framed", wire.len());
    let cd = Request {
        session: 1,
        seq: 2,
        body: RequestBody::Cd {
            node: "192.168.0.1/".repeat(256 * 1024 / 12),
        },
    }
    .encode();

    let mut g = c.benchmark_group("session_codec");
    g.bench_function("encode_ping_response", |b| {
        b.iter(|| black_box(black_box(&resp).encode()))
    });
    g.bench_function("decode_ping_response", |b| {
        b.iter(|| black_box(Response::decode(black_box(&wire)).unwrap()))
    });
    g.bench_function("decode_cd_256k", |b| {
        b.iter(|| black_box(Request::decode(black_box(&cd)).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
