//! Deterministic topology generators.

use lv_radio::medium::LinkOverride;
use lv_radio::propagation::PropagationConfig;
use lv_radio::units::Position;
use lv_radio::{Medium, PowerLevel};
use lv_sim::SimRng;

/// Spacing of adjacent corridor nodes, meters.
const CORRIDOR_SPACING_M: f64 = 5.0;
/// Extra loss on every non-adjacent corridor link, dB.
const CORRIDOR_WALL_LOSS_DB: f64 = 40.0;

/// A generated deployment layout.
#[derive(Debug, Clone)]
pub enum Topology {
    /// `n` nodes on a straight line, `spacing` meters apart.
    Line {
        /// Node count.
        n: usize,
        /// Inter-node spacing in meters.
        spacing: f64,
    },
    /// A corridor: a line of nodes 5 m apart where only *adjacent*
    /// nodes have line of sight; skip links lose an extra 40 dB (walls /
    /// corners). This is how a fixed hop-count path is pinned regardless
    /// of TX power — the simulated analogue of the authors' 8-hop indoor
    /// deployment.
    Corridor {
        /// Node count (hops = n − 1).
        n: usize,
    },
    /// `rows × cols` grid with `spacing` meters pitch.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Grid pitch in meters.
        spacing: f64,
    },
    /// `n` nodes uniformly random in a `side × side` square.
    RandomDisk {
        /// Node count.
        n: usize,
        /// Square side length in meters.
        side: f64,
    },
}

impl Topology {
    /// The paper's evaluation deployment: thirty MicaZ nodes.
    pub fn paper_testbed() -> Topology {
        Topology::RandomDisk { n: 30, side: 40.0 }
    }

    /// The 8-hop-diameter path used for Figs. 5–7.
    pub fn eight_hop_corridor() -> Topology {
        Topology::Corridor { n: 9 }
    }

    /// Number of nodes this topology yields.
    pub fn node_count(&self) -> usize {
        match *self {
            Topology::Line { n, .. } | Topology::Corridor { n, .. } => n,
            Topology::Grid { rows, cols, .. } => rows * cols,
            Topology::RandomDisk { n, .. } => n,
        }
    }

    /// Generate node positions (deterministic in `seed`).
    pub fn positions(&self, seed: u64) -> Vec<Position> {
        match *self {
            Topology::Line { n, spacing } => (0..n)
                .map(|i| Position::new(i as f64 * spacing, 0.0))
                .collect(),
            Topology::Corridor { n } => Topology::Line {
                n,
                spacing: CORRIDOR_SPACING_M,
            }
            .positions(seed),
            Topology::Grid {
                rows,
                cols,
                spacing,
            } => (0..rows * cols)
                .map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
                .collect(),
            Topology::RandomDisk { n, side } => {
                let mut rng = SimRng::stream(seed, 0x544F_504F);
                (0..n)
                    .map(|_| Position::new(rng.unit() * side, rng.unit() * side))
                    .collect()
            }
        }
    }

    /// Build the medium: positions plus any structural link overrides.
    pub fn medium(&self, config: PropagationConfig, seed: u64) -> Medium {
        self.with_overrides(Medium::new(self.positions(seed), config, seed))
    }

    /// Install the topology's structural link overrides.
    fn with_overrides(&self, mut medium: Medium) -> Medium {
        if let Topology::Corridor { n } = *self {
            for i in 0..n as u16 {
                for j in 0..n as u16 {
                    if i != j && (i as i32 - j as i32).abs() >= 2 {
                        medium.set_override(
                            i,
                            j,
                            LinkOverride {
                                extra_loss_db: CORRIDOR_WALL_LOSS_DB,
                                blocked: false,
                            },
                        );
                    }
                }
            }
        }
        medium
    }
}

/// Symmetric "can either direction be heard" adjacency at `power`.
pub fn adjacency(medium: &Medium, power: PowerLevel) -> Vec<Vec<bool>> {
    let n = medium.node_count() as u16;
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| i != j && medium.hears(i, j, power) && medium.hears(j, i, power))
                .collect()
        })
        .collect()
}

/// BFS hop distance between two nodes (`None` if disconnected).
pub fn hop_distance(adj: &[Vec<bool>], from: u16, to: u16) -> Option<usize> {
    let n = adj.len();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[from as usize] = 0;
    queue.push_back(from as usize);
    while let Some(u) = queue.pop_front() {
        if u == to as usize {
            return Some(dist[u]);
        }
        for v in 0..n {
            if adj[u][v] && dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// Network diameter in hops (`None` if disconnected).
pub fn diameter(adj: &[Vec<bool>]) -> Option<usize> {
    let n = adj.len() as u16;
    let mut best = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            best = best.max(hop_distance(adj, i, j)?);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_positions() {
        let t = Topology::Line {
            n: 4,
            spacing: 10.0,
        };
        let p = t.positions(1);
        assert_eq!(p.len(), 4);
        assert!((p[3].x - 30.0).abs() < 1e-12);
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn grid_positions() {
        let t = Topology::Grid {
            rows: 2,
            cols: 3,
            spacing: 5.0,
        };
        let p = t.positions(1);
        assert_eq!(p.len(), 6);
        assert_eq!(t.node_count(), 6);
        assert!((p[5].x - 10.0).abs() < 1e-12);
        assert!((p[5].y - 5.0).abs() < 1e-12);
    }

    #[test]
    fn random_disk_deterministic_and_bounded() {
        let t = Topology::RandomDisk { n: 30, side: 40.0 };
        let a = t.positions(7);
        let b = t.positions(7);
        let c = t.positions(8);
        assert_eq!(a.len(), 30);
        for p in &a {
            assert!((0.0..=40.0).contains(&p.x) && (0.0..=40.0).contains(&p.y));
        }
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn corridor_pins_hop_count_at_any_power() {
        let t = Topology::eight_hop_corridor();
        let medium = t.medium(PropagationConfig::default(), 3);
        for power in [
            PowerLevel::MAX,
            PowerLevel::new(25).unwrap(),
            PowerLevel::new(10).unwrap(),
        ] {
            let adj = adjacency(&medium, power);
            assert_eq!(
                hop_distance(&adj, 0, 8),
                Some(8),
                "power {power} should give exactly 8 hops"
            );
        }
    }

    #[test]
    fn corridor_blocks_skip_links() {
        let t = Topology::eight_hop_corridor();
        let medium = t.medium(PropagationConfig::default(), 3);
        assert!(medium.hears(0, 1, PowerLevel::MAX));
        assert!(!medium.hears(0, 2, PowerLevel::MAX));
    }

    #[test]
    fn paper_testbed_is_connected_multihop() {
        let t = Topology::paper_testbed();
        let medium = t.medium(PropagationConfig::default(), 42);
        let adj = adjacency(&medium, PowerLevel::MAX);
        let d = diameter(&adj);
        assert!(d.is_some(), "30-node testbed must be connected");
        assert!(d.unwrap() >= 2, "must be multi-hop, got {d:?}");
    }

    #[test]
    fn hop_distance_disconnected() {
        let t = Topology::Line {
            n: 2,
            spacing: 500.0,
        };
        let medium = t.medium(PropagationConfig::default(), 3);
        let adj = adjacency(&medium, PowerLevel::MAX);
        assert_eq!(hop_distance(&adj, 0, 1), None);
        assert_eq!(diameter(&adj), None);
    }
}
