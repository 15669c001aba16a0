package cloudsim

import (
	"math"
	"testing"
	"time"
)

func TestClusterTiers(t *testing.T) {
	cs := NCv3Clusters()
	if len(cs) != 3 {
		t.Fatalf("tiers = %d", len(cs))
	}
	if cs[0].HourlyUSD != 4.23 || cs[1].HourlyUSD != 8.47 || cs[2].HourlyUSD != 18.63 {
		t.Fatalf("prices = %v %v %v", cs[0].HourlyUSD, cs[1].HourlyUSD, cs[2].HourlyUSD)
	}
	if cs[0].GPUs != 1 || cs[1].GPUs != 2 || cs[2].GPUs != 4 {
		t.Fatal("GPU counts wrong")
	}
}

func TestSpeedupMatchesFig9(t *testing.T) {
	// Light model: speedups must be exactly the paper's observed 1.62x/2.85x.
	if s := Speedup(2, 0); math.Abs(s-1.62) > 1e-9 {
		t.Fatalf("2-GPU speedup = %v", s)
	}
	if s := Speedup(4, 0); math.Abs(s-2.85) > 1e-9 {
		t.Fatalf("4-GPU speedup = %v", s)
	}
	if s := Speedup(1, 1e9); s != 1 {
		t.Fatalf("1-GPU speedup = %v", s)
	}
	// Heavier models lose more (App B.1's communication-overhead argument).
	if Speedup(2, 2_000_000) >= Speedup(2, 0) {
		t.Fatal("heavier model must scale worse")
	}
}

func TestMemoryGateForcesScaleOut(t *testing.T) {
	clusters := NCv3Clusters()
	// A full-tree-style job: 1.6 GB padded batch -> 40 GB of activations.
	big := TrainingJob{Params: 200_000, BatchBytes: 1_600_000_000, EpochTime1GPU: time.Minute, Epochs: 10}
	if clusters[0].FitsMemory(big) {
		t.Fatal("huge batch must OOM a single 16GB GPU")
	}
	if !clusters[2].FitsMemory(big) {
		t.Fatal("4-GPU tier should shard the batch into memory")
	}
	// A sub-tree job: 120 MB batch fits everywhere.
	small := TrainingJob{Params: 300_000, BatchBytes: 120_000_000, EpochTime1GPU: time.Minute, Epochs: 10}
	if !clusters[0].FitsMemory(small) {
		t.Fatal("sub-tree batch must fit a single GPU")
	}
}

func TestCheapestFeasiblePrefersSingleGPU(t *testing.T) {
	// Scale-out gives <2x speedup for >2x price: single GPU must win when
	// memory allows (§5.4 "economically cheaper to train over a single GPU").
	job := TrainingJob{Params: 100_000, BatchBytes: 50_000_000, EpochTime1GPU: 5 * time.Minute, Epochs: 40}
	cl, cost, err := CheapestFeasible(NCv3Clusters(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Name != "NC6s_V3" {
		t.Fatalf("picked %s, want NC6s_V3", cl.Name)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestCheapestFeasibleFallsBackToMultiGPU(t *testing.T) {
	job := TrainingJob{Params: 200_000, BatchBytes: 1_600_000_000, EpochTime1GPU: 10 * time.Minute, Epochs: 20}
	cl, _, err := CheapestFeasible(NCv3Clusters(), job)
	if err != nil {
		t.Fatal(err)
	}
	if cl.GPUs < 2 {
		t.Fatalf("picked %s despite OOM on 1 GPU", cl.Name)
	}
}

func TestNoFeasibleCluster(t *testing.T) {
	job := TrainingJob{Params: 0, BatchBytes: 1 << 40, EpochTime1GPU: time.Minute, Epochs: 1}
	if _, _, err := CheapestFeasible(NCv3Clusters(), job); err != ErrNoFeasibleCluster {
		t.Fatalf("err = %v", err)
	}
}

func TestEpochTimeScaling(t *testing.T) {
	job := TrainingJob{Params: 0, BatchBytes: 1000, EpochTime1GPU: 100 * time.Second, Epochs: 1}
	cs := NCv3Clusters()
	t1 := cs[0].EpochTime(job)
	t2 := cs[1].EpochTime(job)
	t4 := cs[2].EpochTime(job)
	if t1 != 100*time.Second {
		t.Fatalf("1-GPU epoch = %v", t1)
	}
	if !(t4 < t2 && t2 < t1) {
		t.Fatalf("epoch times not decreasing: %v %v %v", t1, t2, t4)
	}
	// Diminishing returns: 4 GPUs less than 4x faster.
	if float64(t1)/float64(t4) >= 4 {
		t.Fatal("scale-out penalty missing")
	}
}
