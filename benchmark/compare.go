package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// recordedRun is one run of one workload as kept by `record`.
type recordedRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	result
}

// recording is the file `record` writes and `compare` reads.
type recording struct {
	Runs []recordedRun `json:"runs"`
}

// cmdRecord runs every workload once per seed, each run in a process of its
// own (so set-up time and peak memory belong to that workload alone), and
// collects the result lines.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	out := fs.String("out", "", "file to write the collected results to")
	seeds := fs.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated seeds, one run of every workload each")
	seconds := fs.Int("seconds", 10, "seconds measured per run")
	only := fs.String("workloads", "", "comma-separated subset of workloads (default all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: --out is required")
	}
	rec, err := record(*seeds, *seconds, *only)
	if err != nil {
		return err
	}
	return writeRecording(*out, rec)
}

func record(seeds string, seconds int, only string) (*recording, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rec := &recording{}
	for _, field := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(field), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", field, err)
		}
		for _, w := range workloads {
			if only != "" && !strings.Contains(","+only+",", ","+w.Name+",") {
				continue
			}
			cmd := exec.Command(self, "--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w\n%s", w.Name, seed, err, stdout)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			run := recordedRun{Workload: w.Name, Seed: seed}
			if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
				return nil, fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err)
			}
			fmt.Printf("%-13s seed %-3d %s\n", w.Name, seed, lines[len(lines)-1])
			rec.Runs = append(rec.Runs, run)
		}
	}
	return rec, nil
}

func writeRecording(path string, rec *recording) error {
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecording(path string) (*recording, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &recording{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// values returns the recorded values of one metric on one workload.
func (r *recording) values(workload, metric string) []float64 {
	var vs []float64
	for _, run := range r.Runs {
		if mv, ok := run.Metrics[metric]; ok && run.Workload == workload {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

// verdict is one row of a comparison.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	spreadA          float64 // A's interquartile range over its median
	worse            float64 // how much worse B's median is, as a share of A's; negative = better
	bound            float64
	status           string // "ok", "regression" or "unresolved"
}

// judge applies one metric's bound: B regresses when its median is worse
// than A's by more than the bound; when A's own run-to-run spread is wider
// than the bound the pairing cannot be resolved either way.
func judge(d metricDef, as, bs []float64) verdict {
	v := verdict{metric: d.Name, a: median(as), b: median(bs), spreadA: spread(as), bound: d.Bound}
	if v.a != 0 {
		v.worse = (v.b - v.a) / v.a
		if d.Better == "higher" {
			v.worse = -v.worse
		}
	}
	switch {
	case v.spreadA > d.Bound:
		v.status = "unresolved"
	case v.worse > d.Bound:
		v.status = "regression"
	default:
		v.status = "ok"
	}
	return v
}

// compare judges every workload x end-to-end metric of B against A.
func compare(a, b *recording) []verdict {
	var out []verdict
	for _, w := range workloads {
		for _, d := range endToEnd {
			as, bs := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(as) == 0 || len(bs) == 0 {
				continue
			}
			v := judge(d, as, bs)
			v.workload = w.Name
			out = append(out, v)
		}
	}
	return out
}

// printVerdicts prints one row per workload x metric and reports whether all
// are ok.
func printVerdicts(vs []verdict) bool {
	ok := true
	fmt.Printf("%-13s %-15s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "bound", "verdict")
	for _, v := range vs {
		fmt.Printf("%-13s %-15s %14.4f %14.4f %8.2f%% %8.2f%% %6.0f%%  %s\n",
			v.workload, v.metric, v.a, v.b, 100*v.worse, 100*v.spreadA, 100*v.bound, v.status)
		ok = ok && v.status == "ok"
	}
	return ok
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	a, err := readRecording(args[0])
	if err != nil {
		return err
	}
	b, err := readRecording(args[1])
	if err != nil {
		return err
	}
	if !printVerdicts(compare(a, b)) {
		return fmt.Errorf("compare: not every workload x metric is ok")
	}
	return nil
}

// cmdSelfcheck records the set twice with the same code and compares the
// two: the benchmark's own repeatability under its own bounds.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seeds := fs.String("seeds", "1,2,3,4,5,6,7,8,9,10", "comma-separated seeds")
	seconds := fs.Int("seconds", 10, "seconds measured per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var recs [2]*recording
	for i := range recs {
		rec, err := record(*seeds, *seconds, "")
		if err != nil {
			return err
		}
		if err := writeRecording(filepath.Join("benchmark", "out", fmt.Sprintf("selfcheck_%c.json", 'a'+i)), rec); err != nil {
			return err
		}
		recs[i] = rec
	}
	if !printVerdicts(compare(recs[0], recs[1])) {
		return fmt.Errorf("selfcheck: two runs of the same code disagree beyond the bounds")
	}
	return nil
}
