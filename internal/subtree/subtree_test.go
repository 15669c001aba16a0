package subtree

import (
	"testing"
	"testing/quick"

	"prestroid/internal/logicalplan"
	"prestroid/internal/otp"
	"prestroid/internal/tensor"
)

// buildChain returns an O-T-P-style left-deep binary chain of the given
// number of OPR levels, each with a ∅ right child (worst-case skewed tree).
func buildChain(levels int) *otp.Node {
	node := &otp.Node{Type: otp.NodeTbl, Table: "t"}
	for i := 0; i < levels; i++ {
		node = &otp.Node{
			Type:  otp.NodeOpr,
			Op:    logicalplan.OpFilter,
			Left:  node,
			Right: &otp.Node{Type: otp.NodeNull},
		}
	}
	return node
}

// buildComplete returns a complete binary tree of the given depth.
func buildComplete(depth int) *otp.Node {
	if depth < 0 {
		return nil
	}
	n := &otp.Node{Type: otp.NodeOpr, Op: logicalplan.OpJoin}
	if depth == 0 {
		n.Type = otp.NodeTbl
		n.Table = "leaf"
		return n
	}
	n.Left = buildComplete(depth - 1)
	n.Right = buildComplete(depth - 1)
	return n
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{N: 15, C: 3}).Validate(); err == nil {
		t.Fatal("N=15,C=3 violates N > 2^4-1 and must fail")
	}
	if err := (Config{N: 16, C: 3}).Validate(); err != nil {
		t.Fatalf("N=16,C=3 should pass: %v", err)
	}
	if err := (Config{N: 15, C: 0}).Validate(); err == nil {
		t.Fatal("C=0 must fail")
	}
	// Paper configs: N=15 and N=32 with C=3 conv layers require N>15, so the
	// paper's own N=15 setting implies C such that 2^(C+1)-1 < 15, i.e. C<=2.
	if err := (Config{N: 15, C: 2}).Validate(); err != nil {
		t.Fatalf("N=15,C=2: %v", err)
	}
}

func TestSmallTreeSingleCompleteSample(t *testing.T) {
	root := buildComplete(2) // 7 nodes
	samples, err := Sample(root, Config{N: 15, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(samples))
	}
	st := samples[0]
	if len(st.Nodes) != 7 {
		t.Fatalf("nodes = %d, want 7", len(st.Nodes))
	}
	if st.VoteCount() != 7 {
		t.Fatalf("complete sub-tree must have all votes 1, got %d", st.VoteCount())
	}
}

func TestNodeLimitRespected(t *testing.T) {
	root := buildComplete(8) // 511 nodes
	cfg := Config{N: 15, C: 2}
	samples, err := Sample(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 2 {
		t.Fatal("large tree must decompose into multiple sub-trees")
	}
	for i, st := range samples {
		if len(st.Nodes) > cfg.N {
			t.Fatalf("sample %d has %d nodes > N=%d", i, len(st.Nodes), cfg.N)
		}
		if len(st.Votes) != len(st.Nodes) {
			t.Fatalf("sample %d votes misaligned", i)
		}
	}
}

func TestVoteEligibilityDepth(t *testing.T) {
	// Complete tree deep enough to overflow N=15: depth limit for 15 nodes
	// is 3 (1+2+4+8=15). With C=2, voting nodes are those at depth
	// <= (4-2-1)=1, i.e. 3 nodes.
	root := buildComplete(6)
	samples, err := Sample(root, Config{N: 15, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := samples[0]
	if len(first.Nodes) != 15 {
		t.Fatalf("first sample nodes = %d, want 15", len(first.Nodes))
	}
	if got := first.VoteCount(); got != 3 {
		t.Fatalf("vote count = %d, want 3 (nodes at depth <= 1)", got)
	}
	// BFS order: votes must be a prefix of 1s.
	seenZero := false
	for _, v := range first.Votes {
		if v == 0 {
			seenZero = true
		} else if seenZero {
			t.Fatal("votes must be 1-prefix in BFS order")
		}
	}
}

func TestEveryRealNodeEventuallyVotes(t *testing.T) {
	// The paper's overlap scheme (continue from depth D-C) must give every
	// node a voting position in some sub-tree, preserving full coverage.
	for _, build := range []func() *otp.Node{
		func() *otp.Node { return buildComplete(7) },
		func() *otp.Node { return buildChain(40) },
	} {
		root := build()
		samples, err := Sample(root, Config{N: 15, C: 2})
		if err != nil {
			t.Fatal(err)
		}
		voted := map[*otp.Node]bool{}
		for _, st := range samples {
			for i, n := range st.Nodes {
				if st.Votes[i] > 0 {
					voted[n] = true
				}
			}
		}
		missing := 0
		root.Walk(func(n *otp.Node) {
			if !voted[n] {
				missing++
			}
		})
		if missing > 0 {
			t.Fatalf("%d nodes never voted", missing)
		}
	}
}

func TestSkewedChainDecomposition(t *testing.T) {
	root := buildChain(100)
	samples, err := Sample(root, Config{N: 15, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A chain of ~201 nodes with N=15 must produce many overlapping windows.
	if len(samples) < 10 {
		t.Fatalf("samples = %d, expected many for deep chain", len(samples))
	}
	for _, st := range samples {
		if len(st.Nodes) > 15 {
			t.Fatalf("chain sample exceeded N: %d", len(st.Nodes))
		}
	}
}

func TestSampleNilRoot(t *testing.T) {
	samples, err := Sample(nil, Config{N: 15, C: 2})
	if err != nil || samples != nil {
		t.Fatalf("nil root: %v, %v", samples, err)
	}
}

func TestSelectTruncates(t *testing.T) {
	root := buildComplete(8)
	samples, _ := Sample(root, Config{N: 15, C: 2})
	k := 5
	sel := Select(samples, k)
	if len(sel) != k {
		t.Fatalf("Select = %d, want %d", len(sel), k)
	}
	short := Select(samples[:2], 5)
	if len(short) != 2 {
		t.Fatalf("Select must not pad, got %d", len(short))
	}
}

// randomTree builds a random binary tree of roughly the given size.
func randomTree(rng *tensor.RNG, size int) *otp.Node {
	if size <= 0 {
		return nil
	}
	n := &otp.Node{Type: otp.NodeOpr, Op: logicalplan.OpFilter}
	if size == 1 {
		return n
	}
	leftSize := rng.Intn(size)
	n.Left = randomTree(rng, leftSize)
	n.Right = randomTree(rng, size-1-leftSize)
	return n
}

func TestSampleInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		size := 1 + rng.Intn(300)
		root := randomTree(rng, size)
		if root == nil {
			return true
		}
		cfg := Config{N: 15, C: 2}
		samples, err := Sample(root, cfg)
		if err != nil {
			return false
		}
		total := 0
		for _, st := range samples {
			if len(st.Nodes) > cfg.N || len(st.Nodes) == 0 {
				return false
			}
			if len(st.Votes) != len(st.Nodes) {
				return false
			}
			if st.Nodes[0] != st.Root {
				return false
			}
			total += st.VoteCount()
		}
		// Votes across samples must cover at least the tree size (with
		// overlap they can exceed it).
		realCount := 0
		root.Walk(func(*otp.Node) { realCount++ })
		return total >= realCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
