//! ASCII deployment maps.
//!
//! A terminal sketch of the deployment — node positions scaled onto a
//! character grid, dead nodes marked, plus the symmetric connectivity
//! list at the current power settings. The shell's `map` verb prints
//! this; it is the "where physically is everything" companion to the
//! neighbor table's "who can hear whom".

use crate::topology::adjacency;
use lv_kernel::Network;

/// Render the deployment as an ASCII grid plus a link list.
pub fn render_map(net: &Network, cols: usize, rows: usize) -> String {
    let n = net.node_count() as u16;
    let cols = cols.max(16);
    let rows = rows.max(8);
    // Bounding box.
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        let p = net.medium.position(i);
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let span_x = (max_x - min_x).max(1e-9);
    let span_y = (max_y - min_y).max(1e-9);
    let mut grid = vec![vec![b'.'; cols]; rows];
    let mut legend = Vec::new();
    for i in 0..n {
        let p = net.medium.position(i);
        let cx = (((p.x - min_x) / span_x) * (cols - 1) as f64).round() as usize;
        let cy = (((p.y - min_y) / span_y) * (rows - 1) as f64).round() as usize;
        let dead = net.medium.is_dead(i);
        let glyph = if dead {
            b'x'
        } else if i < 10 {
            b'0' + i as u8
        } else {
            b'A' + ((i - 10) % 26) as u8
        };
        grid[rows - 1 - cy][cx] = glyph; // y grows upward
        legend.push(format!(
            "  {} = {}{} at ({:.1}, {:.1})",
            glyph as char,
            net.node(i).name,
            if dead { " [DEAD]" } else { "" },
            p.x,
            p.y
        ));
    }
    let mut out = String::new();
    for row in grid {
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&legend.join("\n"));
    out.push('\n');
    // Symmetric connectivity at each node's current power (approximate:
    // uses node 0's power for the sweep if uniform, else per-pair min).
    let adj = adjacency(&net.medium, net.node(0).power);
    let mut links = Vec::new();
    for (i, row) in adj.iter().enumerate() {
        for (j, &connected) in row.iter().enumerate().skip(i + 1) {
            if connected {
                links.push(format!("{i}-{j}"));
            }
        }
    }
    out.push_str("links: ");
    out.push_str(&if links.is_empty() {
        "(none)".to_owned()
    } else {
        links.join(" ")
    });
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};
    use crate::topology::Topology;

    #[test]
    fn map_shows_every_node_and_links() {
        let s = Scenario::build(ScenarioConfig::new(
            Topology::Corridor {
                n: 4,
                spacing: 5.0,
                wall_loss_db: 40.0,
            },
            3,
        ));
        let map = render_map(&s.net, 40, 8);
        for i in 0..4 {
            assert!(map.contains(&format!("192.168.0.{}", i + 1)), "{map}");
        }
        // Corridor: only adjacent links.
        assert!(map.contains("links: 0-1 1-2 2-3"), "{map}");
        // Glyphs 0..3 appear on the grid.
        for g in ['0', '1', '2', '3'] {
            assert!(map.contains(g), "missing {g} in\n{map}");
        }
    }

    /// Both ways of killing a node — a raw medium kill and a scheduled
    /// churn event — show up in the map legend and in the node's stats.
    #[test]
    fn dead_nodes_marked() {
        let kills: [fn(&mut lv_kernel::Network); 2] = [
            |net| net.medium.set_dead(1, true),
            |net| {
                net.schedule_dynamics(net.now(), lv_kernel::DynamicsAction::NodeDown { id: 1 });
                net.run_for(lv_sim::SimDuration::from_millis(1));
            },
        ];
        for (k, kill) in kills.iter().enumerate() {
            let mut s = Scenario::build(ScenarioConfig::new(
                Topology::Line { n: 3, spacing: 5.0 },
                3,
            ));
            kill(&mut s.net);
            let map = render_map(&s.net, 40, 8);
            assert!(map.contains('x'), "kill {k}:\n{map}");
            assert!(map.contains("[DEAD]"), "kill {k}:\n{map}");
            assert!(!s.net.node_stats()[1].alive, "kill {k}");
        }
    }

    #[test]
    fn single_point_topologies_do_not_panic() {
        let s = Scenario::build(ScenarioConfig::new(
            Topology::Line { n: 2, spacing: 0.0 },
            3,
        ));
        let map = render_map(&s.net, 16, 8);
        assert!(map.contains("192.168.0.1"));
    }
}
