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

// nodesAtDepth returns the frontier nodes exactly at the given depth.
func nodesAtDepth(root *otp.Node, depth int) []*otp.Node {
	if root == nil {
		return nil
	}
	cur := []*otp.Node{root}
	for d := 0; d < depth; d++ {
		var next []*otp.Node
		for _, n := range cur {
			if n.Left != nil {
				next = append(next, n.Left)
			}
			if n.Right != nil {
				next = append(next, n.Right)
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// Sample runs Algorithm 1 over the O-T-P tree rooted at root and returns
// every sub-tree in discovery (BFS) order together with its votes. Callers
// keep the first K sub-trees as the query's representative features.
func Sample(root *otp.Node, cfg Config) ([]SubTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, nil
	}
	var samples []SubTree
	queue := []*otp.Node{root}
	// Guard against re-enqueueing a node already used as a sub-tree root
	// (cannot happen in a tree, but cheap insurance against cycles in
	// hand-built inputs).
	seen := map[*otp.Node]bool{}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if seen[node] {
			continue
		}
		seen[node] = true

		// Grow the candidate set one depth at a time until the node limit
		// is exceeded or no new children appear (complete sub-tree).
		var prior []*otp.Node
		candidates := []*otp.Node{node}
		depth := 0
		complete := false
		for len(candidates) <= cfg.N {
			prior = candidates
			depth++
			candidates = bfsToDepth(node, depth)
			if len(candidates) == len(prior) {
				complete = true
				break
			}
		}
		sub := prior
		subDepth := depth - 1

		st := SubTree{Root: node, Nodes: sub, Depth: subDepth}
		if complete {
			// Every node has full information: all votes 1.
			st.Votes = make([]float64, len(sub))
			for i := range st.Votes {
				st.Votes[i] = 1
			}
			st.Depth = subDepth
		} else {
			// Nodes down to depth-C-1 have their full C-level cone inside
			// the sub-tree; deeper nodes are boundary nodes with vote 0.
			eligibleDepth := depth - cfg.C - 1
			eligible := 0
			if eligibleDepth >= 0 {
				eligible = len(bfsToDepth(node, eligibleDepth))
			}
			st.Votes = make([]float64, len(sub))
			for i := 0; i < eligible && i < len(sub); i++ {
				st.Votes[i] = 1
			}
			// Continue sampling from the frontier at depth-C, giving the
			// next sub-trees a C-level overlap with this one.
			contDepth := depth - cfg.C
			if contDepth < 1 {
				contDepth = 1
			}
			queue = append(queue, nodesAtDepth(node, contDepth)...)
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
