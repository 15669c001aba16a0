package models

import (
	"fmt"
	"strings"
	"testing"

	"prestroid/internal/dataset"
	"prestroid/internal/nn"
)

// A step's update tasks must cover the slab exactly once, and a conv task's
// range must be exactly the gradient rows its AccumulateGrad fills — else a
// worker would step rows another still accumulates, or leave some unstepped.
// Checked at the repository benchmark's shape and at the paper's Grab-Traces
// widths, for the task splits of 1, 2 and 4 workers.
func TestUpdateTasksPartitionTheSlab(t *testing.T) {
	b := bed(t)
	bench := DefaultPrestroidConfig(15, 9)
	bench.ConvWidths, bench.DenseWidths = []int{32, 32, 32}, []int{32, 16}
	paper := DefaultPrestroidConfig(15, 9)
	paper.ConvWidths, paper.DenseWidths = []int{512, 512, 512}, []int{128, 64}
	for _, cfg := range []PrestroidConfig{bench, paper} {
		m := NewPrestroid(cfg, b.pipe)
		convParams := m.conv.Params()
		for _, parts := range []int{1, 2, 4} {
			name := fmt.Sprintf("conv %v, %d parts", cfg.ConvWidths, parts)
			seen := make([]int, len(m.slab.W))
			for _, task := range m.updateTasks(parts) {
				if task.lo >= task.hi {
					t.Fatalf("%s: empty task %+v", name, task)
				}
				for i := task.lo; i < task.hi; i++ {
					seen[i]++
				}
				inHead := task.lo >= m.slab.Offset(len(convParams))
				if task.accumulate == inHead {
					t.Fatalf("%s: task %+v accumulates %v over the head's range %v", name, task, task.accumulate, inHead)
				}
				if !task.accumulate {
					continue
				}
				p, lo, hi := m.conv.Span(task.grad)
				g := convParams[p].G.Data[lo:hi]
				if len(g) != task.hi-task.lo || &g[0] != &m.slab.G[task.lo] {
					t.Fatalf("%s: task %+v steps slab [%d,%d), its gradient rows are elements [%d,%d) of %s",
						name, task, task.lo, task.hi, lo, hi, convParams[p].Name)
				}
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("%s: slab element %d is in %d tasks", name, i, n)
				}
			}
		}
	}
}

// Every model's parameters must be views of its slab once its layers exist:
// Prestroid builds them in its constructor, MSCN and WCNN on the first
// Prepare, which is where a slab laid out at construction would miss them.
func TestModelParamsAliasTheirSlab(t *testing.T) {
	b := bed(t)
	wcfg := DefaultWCNNConfig()
	wcfg.EmbedDim, wcfg.Kernels = 16, 8
	wcnn := NewWCNN(wcfg)
	mcfg := DefaultMSCNConfig()
	mcfg.Units = 32
	mscn := NewMSCN(mcfg, b.pipe)
	if wcnn.ParamCount() != 0 || len(wcnn.Weights()) != 0 {
		t.Fatalf("unbuilt WCNN has %d params", wcnn.ParamCount())
	}
	wcnn.Prepare(b.split.Train)
	mscn.Prepare(b.split.Train)
	for _, c := range []struct {
		name string
		slab *nn.Slab
	}{
		{"Prestroid", NewPrestroid(DefaultPrestroidConfig(15, 9), b.pipe).slab},
		{"Prestroid full", NewPrestroid(DefaultPrestroidConfig(15, 0), b.pipe).slab},
		{"MSCN", mscn.slab},
		{"WCNN", wcnn.slab},
	} {
		if len(c.slab.Params) == 0 {
			t.Fatalf("%s: empty slab", c.name)
		}
		end := 0
		for i, p := range c.slab.Params {
			lo := c.slab.Offset(i)
			if lo != end || &p.W.Data[0] != &c.slab.W[lo] || &p.G.Data[0] != &c.slab.G[lo] {
				t.Fatalf("%s: param %d (%s) is not a view of the slab at %d", c.name, i, p.Name, end)
			}
			end += len(p.W.Data)
		}
		if end != len(c.slab.W) || end != len(c.slab.G) {
			t.Fatalf("%s: params cover %d of the slab's %d elements", c.name, end, len(c.slab.W))
		}
	}
}

// A parameter detached from the slab after construction must stop training
// with a panic rather than have Adam step a copy the model never reads.
func TestTrainBatchPanicsOnDetachedParam(t *testing.T) {
	b := bed(t)
	m := NewPrestroid(DefaultPrestroidConfig(15, 9), b.pipe)
	w := m.Weights()[2].W
	w.Data = append([]float64(nil), w.Data...)
	batch := b.split.Train[:8]
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "detached") {
			t.Fatalf("TrainBatch with a detached param: recovered %v, want a detached panic", r)
		}
	}()
	m.TrainBatch(batch, dataset.Labels(batch, b.norm))
}
