package treecnn_test

import (
	"slices"
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/subtree"
	"prestroid/internal/treecnn"
	"prestroid/internal/workload"
)

// mapChildren resolves each node's children to their indices in nodes
// through a map of every node, -1 when a child is nil or not in the slice:
// the construction flatten's cursor replaced.
func mapChildren(nodes []*otp.Node) (left, right []int) {
	index := make(map[*otp.Node]int, len(nodes))
	for i, node := range nodes {
		index[node] = i
	}
	at := func(child *otp.Node) int {
		if i, ok := index[child]; ok && child != nil {
			return i
		}
		return -1
	}
	for _, node := range nodes {
		left, right = append(left, at(node.Left)), append(right, at(node.Right))
	}
	return left, right
}

// bfs lists a whole tree in breadth-first order, as FlattenFull does.
func bfs(root *otp.Node) []*otp.Node {
	nodes := []*otp.Node{root}
	for i := 0; i < len(nodes); i++ {
		for _, c := range []*otp.Node{nodes[i].Left, nodes[i].Right} {
			if c != nil {
				nodes = append(nodes, c)
			}
		}
	}
	return nodes
}

// TestChildIndexMatchesMap: for every tree of a generated workload — the
// sub-trees of Algorithm 1 at two node limits, the naive BFS and DFS chunks,
// and the whole tree — flatten's Left, Right and Hash equal those of a tree
// whose children were resolved through a map of its nodes.
func TestChildIndexMatchesMap(t *testing.T) {
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = 120
	split := dataset.SplitRandom(workload.NewGrabGenerator(cfg).Generate(), 1)
	pcfg := models.DefaultPipelineConfig(8)
	pcfg.MinCount = 2
	enc := models.BuildPipeline(split.Train, pcfg).Enc

	trees := 0
	for _, tr := range append(split.Train, split.Test...) {
		root := otp.Recast(tr.Plan)
		qctx := enc.NewQueryContext(root)
		layouts := map[string][]subtree.SubTree{
			"naive-bfs": subtree.NaiveChunks(root, 15, 5, false),
			"naive-dfs": subtree.NaiveChunks(root, 15, 5, true),
		}
		for _, sc := range []subtree.Config{{N: 15, C: 2}, {N: 32, C: 3}} {
			samples, err := subtree.Sample(root, sc)
			if err != nil {
				t.Fatal(err)
			}
			layouts["algorithm1"] = append(layouts["algorithm1"], samples...)
		}
		layouts["full"] = []subtree.SubTree{{Root: root, Nodes: bfs(root)}}
		for name, samples := range layouts {
			for i, st := range samples {
				var got *treecnn.Tree
				if name == "full" {
					got = treecnn.FlattenFull(root, enc, qctx)
				} else {
					got = treecnn.FlattenSubTree(st, enc, qctx)
				}
				left, right := mapChildren(st.Nodes)
				want := &treecnn.Tree{Feats: got.Feats, Left: left, Right: right, Votes: got.Votes}
				want.Rehash()
				if !slices.Equal(got.Left, want.Left) || !slices.Equal(got.Right, want.Right) {
					t.Fatalf("%s tree %d of %q: Left %v Right %v, map %v %v", name, i, tr.SQL, got.Left, got.Right, want.Left, want.Right)
				}
				if got.Hash != want.Hash {
					t.Fatalf("%s tree %d of %q: hash %#x, map %#x", name, i, tr.SQL, got.Hash, want.Hash)
				}
				trees++
			}
		}
	}
	t.Logf("%d trees", trees)
}
