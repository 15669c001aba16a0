// Command benchmark is the repository's end-to-end benchmark: four seeded
// workloads over the shipped configuration (train_epoch, serve_hot,
// serve_rebind, serve_cold), each run in its own process, with an untraced
// mode that reports what a user sees and a traced mode that attributes it to
// layers. See README.md in this directory.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result on the last line
//	benchmark record --out A.json [--seeds 1,2,...]           every workload x seed, collected
//	benchmark compare A.json B.json                           per-metric verdicts under the bounds
//	benchmark selfcheck                                       record twice, compare
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "record":
		err = cmdRecord(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = cmdCompare(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "selfcheck":
		err = cmdSelfcheck(os.Args[2:])
	default:
		err = cmdRun(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	clients  int
}

// How often a run repeats its set-up; setup_s is the median. A serving
// set-up trains a model and takes seconds, so three is what the time budget
// allows; the training workload's is 0.15 s of query generation, too short
// for a median of three to be steady.
const (
	setupReps      = 3
	trainSetupReps = 11
)

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var rc runConfig
	var trace int
	fs.StringVar(&rc.workload, "workload", "", "train_epoch, serve_hot, serve_rebind or serve_cold")
	fs.Uint64Var(&rc.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&rc.seconds, "seconds", 10, "seconds measured")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	smoke := fs.Bool("smoke", false, "2 measured seconds, for CI")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rc.trace = trace != 0
	if *smoke {
		rc.seconds = 2
	}
	if rc.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	known := false
	for _, w := range workloads {
		known = known || w.Name == rc.workload
	}
	if !known {
		return fmt.Errorf("unknown --workload %q", rc.workload)
	}

	// The shipped daemon runs with the runtime's defaults; the benchmark only
	// caps the cores at 4 so large hosts stay comparable, and says what it ran
	// under.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	rc.clients = procs
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v gomaxprocs=%d gogc=100 clients=%d %s %s/%s\n",
		rc.workload, rc.seed, rc.seconds, rc.trace, procs, rc.clients, runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var res *result
	var err error
	switch {
	case rc.workload == "train_epoch" && rc.trace:
		res, err = traceTraining(rc)
	case rc.workload == "train_epoch":
		res, err = runTraining(rc)
	case rc.trace:
		res, err = traceServing(rc)
	default:
		res, err = runServing(rc)
	}
	if err != nil {
		return err
	}
	if err := res.print(); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: output check failed (%d of %d operations)", rc.workload, res.Failed, res.Attempted)
	}
	return nil
}

// timedSetups runs setup reps times, tearing down all but the last build, and
// returns the last build with the median duration.
func timedSetups[T any](reps int, setup func() (T, error), teardown func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < reps-1 && teardown != nil {
			if err := teardown(v); err != nil {
				return last, 0, err
			}
		}
		last = v
	}
	return last, median(secs), nil
}

// servingRig is a serving workload's complete set-up: fixture, pool and a
// live server.
type servingRig struct {
	fx  *servingFixture
	srv *liveServer
}

func newServingRig(rc runConfig) (*servingRig, error) {
	fx, err := newServingFixture(rc.workload, rc.seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(fx.predictor(), nil)
	if err != nil {
		return nil, err
	}
	return &servingRig{fx: fx, srv: srv}, nil
}

// servingWindows splits the measured seconds; each end-to-end figure is the
// better-quartile window's (see betterQuartile).
const servingWindows = 50

// runServing is the untraced run of a serving workload.
func runServing(rc runConfig) (*result, error) {
	rig, setupS, err := timedSetups(setupReps, func() (*servingRig, error) { return newServingRig(rc) },
		func(r *servingRig) error { return r.srv.stop() })
	if err != nil {
		return nil, err
	}
	fmt.Printf("pool hash %016x, set-up median %.3fs of %d\n", rig.fx.pool.hash(), setupS, setupReps)

	st := &streams{wl: rc.workload, p: rig.fx.pool, seed: rc.seed}
	window := time.Duration(rc.seconds) * time.Second / servingWindows
	load, err := runLoad(rig.srv, st, rc.clients, window, false)
	if err != nil {
		return nil, err
	}
	if err := rig.srv.stop(); err != nil {
		return nil, err
	}

	bad, badErr := checkSamples(rig.fx.predictor(), load.samples)
	h := load.hits()
	exErr := checkExercised(rc.workload, h)
	fmt.Printf("warm-up %s; windows qps %.0f (median %.0f)\n", load.warm, load.qps(), median(load.qps()))
	fmt.Printf("latency p50 %.1fus p95 %.1fus, %d samples a window, %d beyond p95; %d sampled answers checked against the oracle\n",
		betterQuartile(load.latencyUS(50), "lower"), betterQuartile(load.latencyUS(95), "lower"),
		load.completed()/servingWindows, load.completed()/servingWindows/20, len(load.samples))
	fmt.Printf("hit ratios: prediction %.4f template %.4f sub-tree %.4f\n", h.cache, h.template, h.subtree)
	for _, e := range []error{load.firstErr, badErr, exErr} {
		if e != nil {
			fmt.Println("FAILED:", e)
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"qps":             betterQuartile(load.qps(), "higher"),
		"latency_mean_us": betterQuartile(load.meanUS(), "lower"),
		"peak_rss_mb":     rss,
		"setup_s":         setupS,
	}
	printTable("end-to-end", endToEnd, vals, nil)
	res, err := newResult(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	res.Attempted = load.attempted
	res.Failed = load.failed + bad
	res.Correct = res.Failed == 0 && exErr == nil && len(load.samples) > 0
	return res, nil
}
