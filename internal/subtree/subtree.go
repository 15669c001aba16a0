// Package subtree implements Algorithm 1 of the paper: decomposing a large
// O-T-P binary tree into bounded sub-trees whose breadth-level information is
// preserved for tree convolution. Each sub-tree carries a vote mask — nodes
// deep enough to have their full C-level receptive field inside the sub-tree
// vote 1 and contribute to post-convolution pooling; boundary nodes vote 0.
// Sub-tree roots overlap by C levels so every plan node is eventually
// covered by a voting position in some sub-tree.
package subtree

import (
	"fmt"

	"prestroid/internal/otp"
)

// SubTree is one sample produced by Algorithm 1: the BFS prefix of the tree
// under Root down to the sampled depth, with a parallel vote mask.
type SubTree struct {
	Root  *otp.Node
	Nodes []*otp.Node // BFS order; Nodes[0] == Root
	Votes []float64   // 1 = complete receptive field, 0 = boundary node
	Depth int         // deepest level included (root = 0)
}

// VoteCount returns the number of voting nodes.
func (s *SubTree) VoteCount() int {
	n := 0
	for _, v := range s.Votes {
		if v > 0 {
			n++
		}
	}
	return n
}

// Config holds Algorithm 1's parameters.
type Config struct {
	N int // node limit per sub-tree
	C int // convolution layers whose receptive field must be preserved
	K int // sub-trees to keep: Sample stops after the first K; 0 keeps every one
}

// Validate enforces the paper's constraint N > 2^(C+1) − 1, which guarantees
// a sub-tree can hold at least one voting node plus its full C-level cone.
func (c Config) Validate() error {
	if c.C < 1 {
		return fmt.Errorf("subtree: C must be >= 1, got %d", c.C)
	}
	min := (1 << (c.C + 1)) - 1
	if c.N <= min {
		return fmt.Errorf("subtree: constraint violated: N (%d) must exceed 2^(C+1)-1 (%d)", c.N, min)
	}
	return nil
}

// bfsToDepth returns all nodes of the binary tree under root with depth
// <= limit, in BFS order. ∅ padding nodes are included: they are real
// positions in the O-T-P binary tree and occupy feature slots.
func bfsToDepth(root *otp.Node, limit int) []*otp.Node {
	if root == nil {
		return nil
	}
	type item struct {
		n *otp.Node
		d int
	}
	var out []*otp.Node
	queue := []item{{root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		out = append(out, it.n)
		if it.d == limit {
			continue
		}
		if it.n.Left != nil {
			queue = append(queue, item{it.n.Left, it.d + 1})
		}
		if it.n.Right != nil {
			queue = append(queue, item{it.n.Right, it.d + 1})
		}
	}
	return out
}

// Sample runs Algorithm 1 over the O-T-P tree rooted at root and returns
// its sub-trees in discovery (BFS) order together with their votes: every
// one, or with cfg.K > 0 the first K — the query's representative features,
// what Select would keep of every one — without sampling the rest.
//
// Each sub-tree root is walked once, a BFS level at a time: the nodes of
// depth <= d are a prefix of the nodes of depth <= d+1 in BFS order, so one
// growing walk yields every candidate set, the vote-eligible prefix and the
// frontier the next sub-trees start from.
func Sample(root *otp.Node, cfg Config) ([]SubTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, nil
	}
	var (
		samples []SubTree
		// bfs is the walk under the current sub-tree root in BFS order;
		// starts[d] is where its depth-d level begins, so starts[d+1] counts
		// the nodes of depth <= d. Both are reused from root to root. The
		// walk stops at the first level that takes it past N nodes, and a
		// level at most doubles the one before it, so it never exceeds 3N.
		bfs    = make([]*otp.Node, 0, 3*cfg.N)
		starts []int
	)
	queue := []*otp.Node{root}
	// Guard against re-enqueueing a node already used as a sub-tree root
	// (cannot happen in a tree, but cheap insurance against cycles in
	// hand-built inputs).
	seen := map[*otp.Node]bool{}
	for len(queue) > 0 && (cfg.K <= 0 || len(samples) < cfg.K) {
		node := queue[0]
		queue = queue[1:]
		if seen[node] {
			continue
		}
		seen[node] = true

		// Grow the candidate set one depth at a time until the node limit
		// is exceeded or no new children appear (complete sub-tree).
		bfs = append(bfs[:0], node)
		starts = append(starts[:0], 0, 1)
		depth := 0
		complete := false
		for starts[depth+1] <= cfg.N {
			depth++
			for _, x := range bfs[starts[depth-1]:starts[depth]] {
				if x.Left != nil {
					bfs = append(bfs, x.Left)
				}
				if x.Right != nil {
					bfs = append(bfs, x.Right)
				}
			}
			starts = append(starts, len(bfs))
			if starts[depth+1] == starts[depth] {
				complete = true
				break
			}
		}
		// The sub-tree is every node above the level that overflowed (or
		// the whole, complete walk), copied out of the reused walk.
		n := starts[depth]
		st := SubTree{
			Root:  node,
			Nodes: make([]*otp.Node, n),
			Votes: make([]float64, n),
			Depth: depth - 1,
		}
		copy(st.Nodes, bfs)
		if complete {
			// Every node has full information: all votes 1.
			for i := range st.Votes {
				st.Votes[i] = 1
			}
		} else {
			// Nodes down to depth-C-1 have their full C-level cone inside
			// the sub-tree; deeper nodes are boundary nodes with vote 0.
			if eligibleDepth := depth - cfg.C - 1; eligibleDepth >= 0 {
				for i := range st.Votes[:starts[eligibleDepth+1]] {
					st.Votes[i] = 1
				}
			}
			// Continue sampling from the frontier at depth-C, giving the
			// next sub-trees a C-level overlap with this one.
			contDepth := max(depth-cfg.C, 1)
			queue = append(queue, bfs[starts[contDepth]:starts[contDepth+1]]...)
		}
		samples = append(samples, st)
	}
	return samples, nil
}

// Select returns the first k sub-trees (the paper's "top K representative
// features"); when fewer exist the result is shorter and the model pads.
func Select(samples []SubTree, k int) []SubTree {
	if len(samples) <= k {
		return samples
	}
	return samples[:k]
}

// NaiveChunks is the ablation baseline with the same K x N node budget as
// Algorithm 1: take the first k*n nodes in the given traversal order, slice
// them into k sub-trees of n nodes, and let every node vote. Unlike
// Algorithm 1 it preserves no receptive-field guarantee: chunk boundaries
// cut parent-child edges arbitrarily and boundary nodes still vote.
func NaiveChunks(root *otp.Node, n, k int, depthFirst bool) []SubTree {
	var nodes []*otp.Node
	if depthFirst {
		var walk func(*otp.Node)
		walk = func(x *otp.Node) {
			if x == nil || len(nodes) >= n*k {
				return
			}
			nodes = append(nodes, x)
			walk(x.Left)
			walk(x.Right)
		}
		walk(root)
	} else {
		nodes = bfsToDepth(root, 1<<30)
		if len(nodes) > n*k {
			nodes = nodes[:n*k]
		}
	}
	var out []SubTree
	for start := 0; start < len(nodes); start += n {
		end := start + n
		if end > len(nodes) {
			end = len(nodes)
		}
		chunk := nodes[start:end]
		votes := make([]float64, len(chunk))
		for i := range votes {
			votes[i] = 1
		}
		out = append(out, SubTree{Root: chunk[0], Nodes: chunk, Votes: votes})
	}
	return out
}
