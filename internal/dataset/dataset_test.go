package dataset

import (
	"testing"

	"prestroid/internal/tensor"
	"prestroid/internal/workload"
)

func traces(n int) []*workload.Trace {
	cfg := workload.DefaultGrabConfig()
	cfg.Queries = n
	return workload.NewGrabGenerator(cfg).Generate()
}

func TestSplitRandomRatios(t *testing.T) {
	ts := traces(200)
	s := SplitRandom(ts, 1)
	if len(s.Train) != 160 || len(s.Val) != 20 || len(s.Test) != 20 {
		t.Fatalf("split sizes = %d/%d/%d", len(s.Train), len(s.Val), len(s.Test))
	}
	// No overlap.
	seen := map[*workload.Trace]int{}
	for _, tr := range s.Train {
		seen[tr]++
	}
	for _, tr := range s.Val {
		seen[tr]++
	}
	for _, tr := range s.Test {
		seen[tr]++
	}
	for tr, c := range seen {
		if c != 1 {
			t.Fatalf("trace %d appears %d times", tr.ID, c)
		}
	}
}

func TestSplitByTemplateKeepsTemplatesTogether(t *testing.T) {
	cfg := workload.DefaultTPCDSConfig()
	cfg.Queries = 300
	ts := workload.NewTPCDSGenerator(cfg).Generate()
	s := SplitByTemplate(ts, 1)
	where := map[int]string{}
	assign := func(part string, trs []*workload.Trace) {
		for _, tr := range trs {
			if prev, ok := where[tr.Template]; ok && prev != part {
				t.Fatalf("template %d in both %s and %s", tr.Template, prev, part)
			}
			where[tr.Template] = part
		}
	}
	assign("train", s.Train)
	assign("val", s.Val)
	assign("test", s.Test)
	if len(s.Train) == 0 || len(s.Test) == 0 {
		t.Fatal("empty partitions")
	}
}

func TestBatchesCoverAll(t *testing.T) {
	ts := traces(105)
	rng := tensor.NewRNG(9)
	bs := Batches(ts, 32, rng)
	if len(bs) != 4 {
		t.Fatalf("batches = %d, want 4", len(bs))
	}
	total := 0
	for i, b := range bs {
		total += len(b)
		if i < 3 && len(b) != 32 {
			t.Fatalf("batch %d size %d", i, len(b))
		}
	}
	if total != 105 {
		t.Fatalf("total = %d", total)
	}
	if len(bs[3]) != 9 {
		t.Fatalf("tail batch = %d", len(bs[3]))
	}
}

func TestLabelsNormalised(t *testing.T) {
	ts := traces(50)
	norm := workload.FitNormalizer(ts)
	l := Labels(ts, norm)
	if l.Shape[0] != 50 || l.Shape[1] != 1 {
		t.Fatalf("labels shape %v", l.Shape)
	}
	if l.Min() < 0 || l.Max() > 1 {
		t.Fatalf("labels outside [0,1]: [%v, %v]", l.Min(), l.Max())
	}
}

func TestPaddingByteFormulas(t *testing.T) {
	// Full tree: 32 x 1945 nodes x 100 feats -> dominated by features.
	full := PaddedTreeBatchBytes(32, 1945, 100)
	wantFeat := 32 * 1945 * 100 * 8
	if full < wantFeat || full > wantFeat+32*1945*8+1 {
		t.Fatalf("full tree bytes = %d", full)
	}
	// Sub-tree with K=9, N=15 must be dramatically smaller.
	sub := PaddedSubTreeBatchBytes(32, 9, 15, 100)
	if sub*10 > full {
		t.Fatalf("sub-tree batch (%d) not ~14x smaller than full (%d)", sub, full)
	}
	if PaddedTokenBatchBytes(16, 500) != 16*500*4 {
		t.Fatal("token batch bytes wrong")
	}
	set := PaddedSetBatchBytes(8, []int{10, 5}, []int{20, 30})
	if set != 8*(10*20+5*30)*8 {
		t.Fatalf("set batch bytes = %d", set)
	}
}

func TestSplitDeterministic(t *testing.T) {
	ts := traces(100)
	a := SplitRandom(ts, 5)
	b := SplitRandom(ts, 5)
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("split must be deterministic")
		}
	}
}
