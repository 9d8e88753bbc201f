//! Medium invalidation at benchmark scale, under criterion: one node
//! moved 12 m out and back in the 1000-node, 24 m grid, and the
//! eight-hop corridor's construction with its wall overrides.
//!
//! End-to-end throughput of the simulator (events per second on the
//! 1000-node grid, with and without churn) is lv-benchmark's job; see
//! `BENCHMARK.json` and `scripts/bench-compare.sh`.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_radio::units::Position;
use lv_radio::{PowerLevel, PropagationConfig};
use lv_testbed::Topology;
use std::hint::black_box;

fn mutate(c: &mut Criterion) {
    let mut g = c.benchmark_group("medium_mutate");
    let grid = Topology::Grid {
        rows: 25,
        cols: 40,
        spacing: 24.0,
    };
    let mut medium = grid.medium(PropagationConfig::default(), 42);
    let id = 500u16;
    let home = medium.position(id);
    g.bench_function("set_position_out_and_back/1000", |b| {
        b.iter(|| {
            // A read between moves, as in a running simulation, so the
            // first move pays its memo flush.
            black_box(medium.mean_rx_mw(id, id + 1, PowerLevel::MAX));
            medium.set_position(id, Position::new(home.x + 12.0, home.y));
            medium.set_position(id, home);
        })
    });
    g.bench_function("corridor_build", |b| {
        b.iter(|| {
            black_box(Topology::eight_hop_corridor().medium(PropagationConfig::default(), 42))
        })
    });
    g.finish();
}

criterion_group!(benches, mutate);
criterion_main!(benches);
