//! Immutable CSR adjacency shared by the fused graph-attention ops.

/// Compressed sparse rows: for node `i`, its neighbour list is
/// `targets[offsets[i]..offsets[i+1]]`. One *edge slot* `e` corresponds to
/// the pair `(segment_of(e), targets[e])` — the fused GAT ops
/// ([`crate::Op::EdgeScores`], [`crate::Op::SegmentedSoftmax`],
/// [`crate::Op::NeighborSum`]) operate on `[E, 1]` edge tensors laid out in
/// this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphCsr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl GraphCsr {
    /// Build from per-node neighbour lists. With `self_loops`, node `i` is
    /// appended to its own list if absent (standard GAT practice; keeps
    /// isolated nodes well-defined under softmax).
    pub fn from_neighbor_lists(lists: &[Vec<usize>], self_loops: bool) -> Self {
        Self::from_neighbor_fn(lists.len(), self_loops, |i, out| {
            out.extend_from_slice(&lists[i])
        })
    }

    /// [`GraphCsr::from_neighbor_lists`] without the lists: `neighbors(i,
    /// out)` appends node `i`'s neighbours straight onto the edge array,
    /// for `i` in `0..n` in order.
    pub fn from_neighbor_fn(
        n: usize,
        self_loops: bool,
        mut neighbors: impl FnMut(usize, &mut Vec<usize>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for i in 0..n {
            let start = targets.len();
            neighbors(i, &mut targets);
            let list = &targets[start..];
            for &j in list {
                assert!(j < n, "neighbor {j} out of range for {n} nodes");
            }
            if self_loops && !list.contains(&i) {
                targets.push(i);
            }
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Edge-slot range of node `i`.
    pub fn segment(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Neighbour at edge slot `e`.
    pub fn target(&self, e: usize) -> usize {
        self.targets[e]
    }

    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.targets[self.segment(i)]
    }

    /// Block-diagonal union of several graphs: nodes are renumbered by the
    /// running node offset of their block, edges stay within their block,
    /// and both node order and each node's neighbour order are preserved.
    /// Segment-local kernels (`edge_scores`, `segmented_softmax`,
    /// `neighbor_sum`) therefore compute, for every node of the union, the
    /// exact values they would compute on the node's own block — the basis
    /// of the batched encoder's fused GAT pass.
    pub fn block_diagonal<'a>(parts: impl IntoIterator<Item = &'a GraphCsr>) -> Self {
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        let mut node_off = 0usize;
        for part in parts {
            for i in 0..part.num_nodes() {
                for e in part.segment(i) {
                    targets.push(node_off + part.target(e));
                }
                offsets.push(targets.len());
            }
            node_off += part.num_nodes();
        }
        Self { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_with_self_loops() {
        let csr = GraphCsr::from_neighbor_lists(&[vec![1], vec![0, 1], vec![]], true);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.neighbors(0), &[1, 0]); // self appended
        assert_eq!(csr.neighbors(1), &[0, 1]); // already present
        assert_eq!(csr.neighbors(2), &[2]); // isolated node gets self
        assert_eq!(csr.num_edges(), 5);
    }

    #[test]
    fn builds_without_self_loops() {
        let csr = GraphCsr::from_neighbor_lists(&[vec![1], vec![0]], false);
        assert_eq!(csr.neighbors(0), &[1]);
        assert_eq!(csr.num_edges(), 2);
    }

    #[test]
    fn segments_partition_edges() {
        let csr = GraphCsr::from_neighbor_lists(&[vec![1, 2], vec![2], vec![0]], true);
        let mut covered = 0;
        for i in 0..csr.num_nodes() {
            covered += csr.segment(i).len();
        }
        assert_eq!(covered, csr.num_edges());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_neighbors() {
        let _ = GraphCsr::from_neighbor_lists(&[vec![5]], false);
    }

    #[test]
    fn block_diagonal_offsets_nodes_per_block() {
        let a = GraphCsr::from_neighbor_lists(&[vec![1], vec![0]], true);
        let b = GraphCsr::from_neighbor_lists(&[vec![]], true);
        let c = GraphCsr::from_neighbor_lists(&[vec![1, 2], vec![], vec![0]], false);
        let u = GraphCsr::block_diagonal([&a, &b, &c]);
        assert_eq!(u.num_nodes(), a.num_nodes() + b.num_nodes() + c.num_nodes());
        assert_eq!(u.num_edges(), a.num_edges() + b.num_edges() + c.num_edges());
        // Block a at node offset 0, b at 2, c at 3; neighbour order kept.
        assert_eq!(u.neighbors(0), &[1, 0]);
        assert_eq!(u.neighbors(1), &[0, 1]);
        assert_eq!(u.neighbors(2), &[2]);
        assert_eq!(u.neighbors(3), &[4, 5]);
        assert_eq!(u.neighbors(4), &[] as &[usize]);
        assert_eq!(u.neighbors(5), &[3]);
    }

    #[test]
    fn block_diagonal_of_nothing_is_empty() {
        let u = GraphCsr::block_diagonal([]);
        assert_eq!(u.num_nodes(), 0);
        assert_eq!(u.num_edges(), 0);
    }
}
