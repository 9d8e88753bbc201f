//! Node naming, IP-convention style.
//!
//! "In our testbed, we assign names following IP conventions to each
//! node as their names" — node ids map to `192.168.0.<id+1>` and the
//! LiteOS shell mounts the network under `/sn01`, so node 0's working
//! directory prints as `/sn01/192.168.0.1` (the paper's `$pwd` output).
//!
//! This module holds only the convention. A node's name has one home,
//! [`Node::name`](crate::Node::name): beacons advertise it and
//! [`Network::resolve`](crate::Network::resolve) looks it up, so a
//! renamed node is found and advertised under its new name.

/// The default sensor-network mount point.
pub const MOUNT: &str = "/sn01";

/// The default IP-convention name for node `id`.
pub fn default_name(id: u16) -> String {
    format!("192.168.0.{}", id as u32 + 1)
}

/// The shell path for node `id` (what `pwd` prints).
pub fn shell_path(name: &str) -> String {
    format!("{MOUNT}/{name}")
}

/// Parse a default-convention name back to a node id.
pub fn parse_name(name: &str) -> Option<u16> {
    let suffix = name.strip_prefix("192.168.0.")?;
    let host: u32 = suffix.parse().ok()?;
    if host == 0 || host > u16::MAX as u32 + 1 {
        return None;
    }
    Some((host - 1) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_names_follow_ip_convention() {
        assert_eq!(default_name(0), "192.168.0.1");
        assert_eq!(default_name(29), "192.168.0.30");
    }

    #[test]
    fn shell_path_matches_paper_pwd() {
        assert_eq!(shell_path("192.168.0.1"), "/sn01/192.168.0.1");
    }

    #[test]
    fn parse_inverts_default_name() {
        for id in [0u16, 1, 29, 254] {
            assert_eq!(parse_name(&default_name(id)), Some(id));
        }
        assert_eq!(parse_name("192.168.0.0"), None);
        assert_eq!(parse_name("192.168.1.5"), None);
        assert_eq!(parse_name("not-an-ip"), None);
    }
}
