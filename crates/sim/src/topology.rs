//! Network topologies: lay multi-site organisations (the paper's
//! "different departments, sections or even organisations") onto a
//! [`Network`].

use crate::net::{LinkSpec, Network, NodeId};

/// A named group of co-located nodes.
#[derive(Debug, Clone)]
pub struct Site {
    /// A label for diagnostics.
    pub name: String,
    /// The nodes at this site.
    pub nodes: Vec<NodeId>,
}

impl Site {
    /// Creates a site.
    pub fn new(name: impl Into<String>, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        Site {
            name: name.into(),
            nodes: nodes.into_iter().collect(),
        }
    }
}

/// Applies a multi-site topology: `intra` links within each site, and
/// `inter(a, b)` links between nodes of site `a` and site `b` (indices
/// into `sites`). Typical use: LAN inside, WAN between.
pub fn sites(
    net: &mut Network,
    sites: &[Site],
    intra: LinkSpec,
    inter: impl Fn(usize, usize) -> LinkSpec,
) {
    for (i, site) in sites.iter().enumerate() {
        for (k, &a) in site.nodes.iter().enumerate() {
            for &b in &site.nodes[k + 1..] {
                net.set_link(a, b, intra);
            }
        }
        for (j, other) in sites.iter().enumerate().skip(i + 1) {
            let spec = inter(i, j);
            for &a in &site.nodes {
                for &b in &other.nodes {
                    net.set_link(a, b, spec);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn nodes(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    #[test]
    fn sites_apply_intra_and_inter_links() {
        let mut net = Network::new(LinkSpec::ideal());
        let lancaster = Site::new("lancaster", nodes(0..2));
        let paris = Site::new("paris", nodes(2..4));
        let wan = LinkSpec::wan(SimDuration::from_millis(30));
        sites(&mut net, &[lancaster, paris], LinkSpec::lan(), |_, _| wan);
        assert_eq!(
            net.link(NodeId(0), NodeId(1)).latency,
            LinkSpec::lan().latency
        );
        assert_eq!(
            net.link(NodeId(2), NodeId(3)).latency,
            LinkSpec::lan().latency
        );
        assert_eq!(net.link(NodeId(0), NodeId(3)).latency, wan.latency);
        assert_eq!(
            net.link(NodeId(3), NodeId(0)).latency,
            wan.latency,
            "symmetric"
        );
    }

    #[test]
    fn site_pairs_can_differ() {
        let mut net = Network::new(LinkSpec::ideal());
        let s: Vec<Site> = (0..3)
            .map(|i| Site::new(format!("s{i}"), nodes(i * 2..i * 2 + 2)))
            .collect();
        sites(&mut net, &s, LinkSpec::lan(), |a, b| {
            LinkSpec::wan(SimDuration::from_millis(10 * (a + b) as u64))
        });
        assert_eq!(
            net.link(NodeId(0), NodeId(2)).latency,
            SimDuration::from_millis(10) // sites 0-1
        );
        assert_eq!(
            net.link(NodeId(2), NodeId(4)).latency,
            SimDuration::from_millis(30) // sites 1-2
        );
    }
}
