package subtree

import (
	"math"
	"testing"

	"prestroid/internal/logicalplan"
	"prestroid/internal/otp"
	"prestroid/internal/workload"
)

// sampleRef is Algorithm 1 as first written, kept as the reference Sample is
// held to: every depth of every sub-tree root re-walks the tree from the
// root with bfsToDepth, the vote-eligible count is one more walk, and the
// frontier another (refNodesAtDepth). Quadratic in the sampled depth, and
// plainly the paper's loop.
func sampleRef(root *otp.Node, cfg Config) ([]SubTree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if root == nil {
		return nil, nil
	}
	var samples []SubTree
	queue := []*otp.Node{root}
	seen := map[*otp.Node]bool{}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if seen[node] {
			continue
		}
		seen[node] = true

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
			st.Votes = make([]float64, len(sub))
			for i := range st.Votes {
				st.Votes[i] = 1
			}
		} else {
			eligibleDepth := depth - cfg.C - 1
			eligible := 0
			if eligibleDepth >= 0 {
				eligible = len(bfsToDepth(node, eligibleDepth))
			}
			st.Votes = make([]float64, len(sub))
			for i := 0; i < eligible && i < len(sub); i++ {
				st.Votes[i] = 1
			}
			contDepth := depth - cfg.C
			if contDepth < 1 {
				contDepth = 1
			}
			queue = append(queue, refNodesAtDepth(node, contDepth)...)
		}
		samples = append(samples, st)
	}
	return samples, nil
}

// refNodesAtDepth returns the nodes exactly at the given depth under root.
func refNodesAtDepth(root *otp.Node, depth int) []*otp.Node {
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

// checkSampleMatchesReference requires Sample and sampleRef to return the
// same sub-trees of root under cfg: the same roots, the same node pointers in
// the same order, the same vote bits and the same depths.
func checkSampleMatchesReference(t *testing.T, root *otp.Node, cfg Config) {
	t.Helper()
	got, err := Sample(root, cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	want, err := sampleRef(root, cfg)
	if err != nil {
		t.Fatalf("%+v: reference: %v", cfg, err)
	}
	checkSameSubTrees(t, cfg, got, want)
}

// checkSameSubTrees requires got and want to be the same sub-trees: the same
// roots, node pointers in the same order, vote bits and depths.
func checkSameSubTrees(t *testing.T, cfg Config, got, want []SubTree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%+v: %d sub-trees, reference %d", cfg, len(got), len(want))
	}
	for s := range want {
		g, w := got[s], want[s]
		if g.Root != w.Root || g.Depth != w.Depth {
			t.Fatalf("%+v: sub-tree %d root/depth %p/%d, reference %p/%d", cfg, s, g.Root, g.Depth, w.Root, w.Depth)
		}
		if len(g.Nodes) != len(w.Nodes) || len(g.Votes) != len(w.Votes) {
			t.Fatalf("%+v: sub-tree %d has %d nodes/%d votes, reference %d/%d",
				cfg, s, len(g.Nodes), len(g.Votes), len(w.Nodes), len(w.Votes))
		}
		for i := range w.Nodes {
			if g.Nodes[i] != w.Nodes[i] {
				t.Fatalf("%+v: sub-tree %d node %d differs from the reference", cfg, s, i)
			}
			if math.Float64bits(g.Votes[i]) != math.Float64bits(w.Votes[i]) {
				t.Fatalf("%+v: sub-tree %d vote %d = %v, reference %v", cfg, s, i, g.Votes[i], w.Votes[i])
			}
		}
	}
}

// referenceConfigs are the (N, C) pairs the reference check runs: the
// smallest legal N for one layer, and the paper's N = 15 and N = 32 at the
// deepest C each allows.
var referenceConfigs = []Config{{N: 4, C: 1}, {N: 15, C: 2}, {N: 32, C: 3}}

// planCorpus recasts a generated plan sample into O-T-P trees — a few
// hundred plans spanning chains, balanced shapes and the Pareto tail.
func planCorpus(t *testing.T) []*otp.Node {
	t.Helper()
	plans := workload.GeneratePlanSample(workload.PlanSampleConfig{
		Count: 200, Seed: 11, MaxNodes: 300, TailFraction: 0.05,
	})
	roots := make([]*otp.Node, len(plans))
	for i, p := range plans {
		roots[i] = otp.Recast(p)
	}
	return roots
}

func TestSampleMatchesReference(t *testing.T) {
	roots := planCorpus(t)
	for _, cfg := range referenceConfigs {
		for _, root := range roots {
			checkSampleMatchesReference(t, root, cfg)
		}
		checkSampleMatchesReference(t, buildChain(60), cfg)
		checkSampleMatchesReference(t, buildComplete(7), cfg)
	}
}

// TestSampleStopsAfterK holds Sample with a K to Select of every sub-tree
// Sample finds without one, on the reference check's trees and on generated
// Grab plans, at K = 1, the paper's 5, 9 and a K past every plan's count.
func TestSampleStopsAfterK(t *testing.T) {
	roots := append(planCorpus(t), buildChain(60), buildComplete(7))
	g := workload.DefaultGrabConfig()
	g.Queries = 300
	for _, tr := range workload.NewGrabGenerator(g).Generate() {
		roots = append(roots, otp.Recast(tr.Plan))
	}
	for _, cfg := range referenceConfigs {
		for _, root := range roots {
			all, err := Sample(root, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, 9, 1000} {
				kcfg := cfg
				kcfg.K = k
				got, err := Sample(root, kcfg)
				if err != nil {
					t.Fatal(err)
				}
				checkSameSubTrees(t, kcfg, got, Select(all, k))
			}
		}
	}
}

// fuzzTreeMaxNodes bounds the trees treeFromBytes builds.
const fuzzTreeMaxNodes = 600

// treeFromBytes builds a binary tree in BFS order: the i-th byte gives the
// i-th node its children, bit 0 a left and bit 1 a right one; nodes past the
// last byte, or past fuzzTreeMaxNodes, are leaves.
func treeFromBytes(shape []byte) *otp.Node {
	root := &otp.Node{Type: otp.NodeOpr, Op: logicalplan.OpJoin}
	queue := []*otp.Node{root}
	built := 1
	for i := 0; i < len(shape) && i < len(queue); i++ {
		n := queue[i]
		if shape[i]&1 != 0 && built < fuzzTreeMaxNodes {
			n.Left = &otp.Node{Type: otp.NodeOpr, Op: logicalplan.OpFilter}
			queue = append(queue, n.Left)
			built++
		}
		if shape[i]&2 != 0 && built < fuzzTreeMaxNodes {
			n.Right = &otp.Node{Type: otp.NodeNull}
			queue = append(queue, n.Right)
			built++
		}
	}
	return root
}

// FuzzSampleMatchesReference holds Sample to sampleRef on arbitrary binary
// trees — chains, bushes, one-sided and ragged shapes — under any legal
// (N, C): N from 4 to 67, C from 1 to 3, lowered to 1 where N is too small.
func FuzzSampleMatchesReference(f *testing.F) {
	f.Add(byte(11), byte(1), []byte{3, 3, 3, 3, 3, 3, 3})
	f.Add(byte(0), byte(0), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(byte(28), byte(2), []byte{3, 1, 2, 3, 0, 3, 1, 1, 2, 2, 3, 3, 3, 0, 1})
	f.Add(byte(12), byte(1), []byte{})
	f.Add(byte(60), byte(2), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, n, c byte, shape []byte) {
		cfg := Config{N: 4 + int(n)%64, C: 1 + int(c)%3}
		if cfg.Validate() != nil {
			cfg.C = 1
		}
		checkSampleMatchesReference(t, treeFromBytes(shape), cfg)
	})
}
