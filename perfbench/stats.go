package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailIndex returns the index, into n ascending samples, of the reported
// tail latency: p99 when at least ten samples lie beyond it (n >= 1000),
// otherwise the highest rank that still has ten beyond it. Below 21 samples
// that rank falls under the median, so the median is reported instead: a
// run that short has no measurable tail.
func tailIndex(n int) int {
	i := int(math.Ceil(0.99*float64(n))) - 1
	if n-1-i < 10 {
		i = n - 11
	}
	if m := medianIndex(n); i < m {
		i = m
	}
	return i
}

// medianIndex is the nearest-rank median of n ascending samples.
func medianIndex(n int) int {
	return int(math.Ceil(0.5*float64(n))) - 1
}

// percentiles sorts lat in place and returns the median and the tail value
// chosen by tailIndex, with the tail's index.
func percentiles(lat []time.Duration) (p50, tail time.Duration, tailAt int) {
	if len(lat) == 0 {
		return 0, 0, -1
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	tailAt = tailIndex(len(lat))
	return lat[medianIndex(len(lat))], lat[tailAt], tailAt
}

// gapRatio is the factor by which the samples two ranks above index i
// exceed those two ranks below it in the ascending slice s. A reported
// percentile whose neighbourhood spans a large factor sits on a gap between
// input size classes: one more or one fewer slow op moves it to another
// class, so it jumps between runs instead of measuring the system.
func gapRatio(s []time.Duration, i int) float64 {
	lo, hi := i-2, i+2
	if lo < 0 {
		lo = 0
	}
	if hi > len(s)-1 {
		hi = len(s) - 1
	}
	if s[lo] <= 0 {
		return 1
	}
	return float64(s[hi]) / float64(s[lo])
}

// maxGapRatio is the neighbourhood spread above which a percentile counts
// as sitting on a size-class gap.
const maxGapRatio = 1.5

// checkGaps returns one warning per reported percentile of the ascending
// samples s that sits on a size-class gap.
func checkGaps(workload string, s []time.Duration) []string {
	if len(s) < 5 {
		return nil
	}
	var out []string
	for _, p := range []struct {
		name string
		at   int
	}{{"p50", medianIndex(len(s))}, {"tail", tailIndex(len(s))}} {
		if r := gapRatio(s, p.at); r > maxGapRatio {
			out = append(out, fmt.Sprintf("%s: %s latency sits on a size-class gap (neighbours span %.2fx)", workload, p.name, r))
		}
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianDuration returns the nearest-rank median of ds (which it sorts).
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[medianIndex(len(ds))]
}
