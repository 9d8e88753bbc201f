//! Incremental invalidation equals a rebuild: a 1000-node medium that
//! has been mutated in place answers every reachability and mean-power
//! query bit-identically to a medium built fresh at the final positions.

use lv_radio::units::Position;
use lv_radio::{Medium, PowerLevel, PropagationConfig};

/// The 25 × 40 grid at 24 m pitch (the 1000-node benchmark world).
fn grid_positions() -> Vec<Position> {
    (0..1000)
        .map(|i| Position::new((i % 40) as f64 * 24.0, (i / 40) as f64 * 24.0))
        .collect()
}

#[test]
fn moved_medium_matches_fresh_build() {
    let seed = 42;
    let mut positions = grid_positions();
    let mut medium = Medium::new(positions.clone(), PropagationConfig::default(), seed);
    // Out by 12 m (half a pitch) and back: the benchmark's churn moves.
    let round_trips = [0u16, 1, 39, 250, 499, 500, 777, 999];
    for id in round_trips {
        let home = positions[id as usize];
        medium.set_position(id, Position::new(home.x + 12.0, home.y));
        // Reading between moves dirties the memo, so each move must flush.
        let _ = medium.mean_rx_mw(id, id ^ 1, PowerLevel::MAX);
        medium.set_position(id, home);
    }
    // Four moves that stick: inside the grid, off its edges, and onto a
    // spot 1 m from another node.
    let relocations = [
        (10u16, Position::new(300.5, 100.25)),
        (400, Position::new(-30.0, 50.0)),
        (600, Position::new(900.0, 900.0)),
        (850, Position::new(positions[851].x + 1.0, positions[851].y)),
    ];
    for (id, pos) in relocations {
        medium.set_position(id, pos);
        positions[id as usize] = pos;
    }
    let fresh = Medium::new(positions, PropagationConfig::default(), seed);

    let movers: Vec<u16> = round_trips
        .iter()
        .copied()
        .chain(relocations.iter().map(|&(id, _)| id))
        .collect();
    for from in 0..1000u16 {
        let got: Vec<u16> = medium.reachable(from, PowerLevel::MAX).collect();
        let want: Vec<u16> = fresh.reachable(from, PowerLevel::MAX).collect();
        assert_eq!(got, want, "reachable({from})");
        for &to in got.iter().chain(&movers) {
            assert_eq!(
                medium
                    .mean_rx_power(from, to, PowerLevel::MAX)
                    .map(|p| p.0.to_bits()),
                fresh
                    .mean_rx_power(from, to, PowerLevel::MAX)
                    .map(|p| p.0.to_bits()),
                "mean_rx_power({from},{to})"
            );
        }
    }
}
