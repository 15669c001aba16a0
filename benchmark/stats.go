package main

import (
	"fmt"
	"sort"
	"syscall"
)

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count); vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// betterQuartile returns the figure of the window a quarter of the way down
// from the best one: vs are per-window figures, better says whether higher or
// lower is better. Every end-to-end figure is taken this way. On a shared
// machine other tenants slow windows down in bursts and in phases of minutes
// (a median of windows moved by 20% between two runs of the same code), and
// now and then the host falls quiet and a window runs a third faster than any
// other (the best window moved as much). The quartile is out of reach of both
// until three windows in four are disturbed, and a slower program is slower
// in every window, this one too.
func betterQuartile(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return s[(len(s)-1)/4]
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// meanNS is the mean of a set of durations in nanoseconds.
func meanNS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sum := int64(0)
	for _, v := range ns {
		sum += v
	}
	return float64(sum) / float64(len(ns))
}

// quartiles returns the first and third quartile of vs exactly as Python's
// statistics.quantiles(vs, n=4) (the default "exclusive" method) does, which
// is how the driver computes a metric's run-to-run spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 { // i-th of 4 cut points, 1-based
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of vs as a share of its median.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	if m < 0 {
		m = -m
	}
	return (q3 - q1) / m
}

// peakRSSMB is the process's resident-set high-water mark, from getrusage
// (on Linux ru_maxrss is VmHWM in kB), so no file outside the checkout is read.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
