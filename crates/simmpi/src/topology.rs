//! Cluster topology: ranks, nodes, and placement groups.

use serde::{Deserialize, Serialize};

/// Where ranks physically live: `num_nodes` nodes with `cores_per_node`
/// cores each, optionally spread over *placement groups* (Amazon EC2's
/// network-aware host allocation — nodes in the same group enjoy better
/// inter-node locality).
///
/// Ranks are placed in block order, like `mpiexec` with a sequential hosts
/// list: rank `r` lives on node `r / cores_per_node`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    cores_per_node: usize,
    /// Placement-group id per node; length is the node count.
    groups: Vec<usize>,
}

impl ClusterTopology {
    /// A cluster of `num_nodes` identical nodes in one placement group.
    pub fn uniform(num_nodes: usize, cores_per_node: usize) -> Self {
        assert!(num_nodes > 0 && cores_per_node > 0);
        ClusterTopology {
            cores_per_node,
            groups: vec![0; num_nodes],
        }
    }

    /// A cluster whose node `i` belongs to placement group `groups[i]`.
    pub fn with_groups(cores_per_node: usize, groups: Vec<usize>) -> Self {
        assert!(cores_per_node > 0 && !groups.is_empty());
        ClusterTopology {
            cores_per_node,
            groups,
        }
    }

    /// A cluster of `num_nodes` nodes dealt round-robin into `num_groups`
    /// placement groups (the paper's "mix" configuration used 63 hosts from
    /// four groups).
    pub fn round_robin_groups(num_nodes: usize, cores_per_node: usize, num_groups: usize) -> Self {
        assert!(num_groups > 0);
        ClusterTopology {
            cores_per_node,
            groups: (0..num_nodes).map(|n| n % num_groups).collect(),
        }
    }

    /// Cores per node.
    #[inline]
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.groups.len()
    }

    /// Total core capacity.
    #[inline]
    pub fn total_cores(&self) -> usize {
        self.num_nodes() * self.cores_per_node
    }

    /// Node hosting `rank`.
    ///
    /// # Panics
    /// Panics if the rank exceeds the cluster capacity.
    #[inline]
    pub fn node_of_rank(&self, rank: usize) -> usize {
        let node = rank / self.cores_per_node;
        assert!(
            node < self.num_nodes(),
            "rank {rank} exceeds cluster capacity"
        );
        node
    }

    /// Placement group of a node.
    #[inline]
    pub fn group_of_node(&self, node: usize) -> usize {
        self.groups[node]
    }

    /// Whether two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of_rank(a) == self.node_of_rank(b)
    }

    /// Whether two ranks' nodes share a placement group.
    #[inline]
    pub fn same_group(&self, a: usize, b: usize) -> bool {
        self.group_of_node(self.node_of_rank(a)) == self.group_of_node(self.node_of_rank(b))
    }

    /// Nodes needed to host `ranks` ranks.
    #[inline]
    pub fn nodes_for_ranks(&self, ranks: usize) -> usize {
        ranks.div_ceil(self.cores_per_node)
    }

    /// Number of ranks living on `node` in a job of `total_ranks` ranks.
    pub fn ranks_on_node(&self, node: usize, total_ranks: usize) -> usize {
        let lo = node * self.cores_per_node;
        if total_ranks <= lo {
            0
        } else {
            (total_ranks - lo).min(self.cores_per_node)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let t = ClusterTopology::uniform(4, 4);
        assert_eq!(t.node_of_rank(0), 0);
        assert_eq!(t.node_of_rank(3), 0);
        assert_eq!(t.node_of_rank(4), 1);
        assert_eq!(t.node_of_rank(15), 3);
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    #[should_panic(expected = "exceeds cluster capacity")]
    fn rank_beyond_capacity_panics() {
        ClusterTopology::uniform(2, 4).node_of_rank(8);
    }

    #[test]
    fn nodes_for_ranks_paper_example() {
        // cc2.8xlarge: 16 cores; 1000 ranks fit on 63 instances.
        let t = ClusterTopology::uniform(63, 16);
        assert_eq!(t.nodes_for_ranks(1000), 63);
        assert_eq!(t.nodes_for_ranks(1), 1);
        assert_eq!(t.nodes_for_ranks(16), 1);
        assert_eq!(t.nodes_for_ranks(17), 2);
    }

    #[test]
    fn ranks_on_node_counts() {
        let t = ClusterTopology::uniform(3, 4);
        // 10 ranks: 4 + 4 + 2.
        assert_eq!(t.ranks_on_node(0, 10), 4);
        assert_eq!(t.ranks_on_node(1, 10), 4);
        assert_eq!(t.ranks_on_node(2, 10), 2);
    }

    #[test]
    fn placement_groups() {
        let t = ClusterTopology::round_robin_groups(8, 16, 4);
        assert_eq!(t.group_of_node(0), 0);
        assert_eq!(t.group_of_node(5), 1);
        assert!(t.same_group(0, 15)); // same node 0
        assert!(!t.same_group(0, 16)); // node 0 (group 0) vs node 1 (group 1)
        let groups: Vec<usize> = (0..8).map(|n| t.group_of_node(n)).collect();
        assert_eq!(groups, [0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn uniform_is_single_group() {
        let t = ClusterTopology::uniform(10, 2);
        assert!((0..10).all(|n| t.group_of_node(n) == 0));
        assert!(t.same_group(0, 19));
    }
}
