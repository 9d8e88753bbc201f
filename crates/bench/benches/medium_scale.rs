//! Cached vs brute-force medium at benchmark scale: times one point of
//! the PR-3 scaling workload (beacon + traceroute, multi-trial) with the
//! reachability cache on and off. Criterion keeps the comparison honest
//! over time; the full 100→1000-node sweep lives in `figures --scale`
//! (and `scripts/bench.sh` checks it into `BENCH_PR3.json`).
//!
//! The `medium_mutate` group times medium invalidation on its own: one
//! node moved 12 m out and back in the 1000-node, 24 m grid, and the
//! eight-hop corridor's construction with its wall overrides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lv_radio::units::Position;
use lv_radio::{PowerLevel, PropagationConfig};
use lv_testbed::experiments::scale_point;
use lv_testbed::Topology;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("medium_scale");
    g.sample_size(10);
    let n = 100usize;
    for cached in [true, false] {
        let label = if cached { "cached" } else { "brute" };
        g.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
            b.iter(|| {
                let row = scale_point(n, 42, cached);
                black_box(row.events)
            })
        });
    }
    g.finish();
}

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

criterion_group!(benches, bench, mutate);
criterion_main!(benches);
