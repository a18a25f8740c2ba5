package main

import (
	"math"
	"sort"
)

// summary is a latency distribution reduced to what the report prints: the
// sample count, the median, the 99th percentile, and how many samples lie
// above the 99th percentile (the guide for this benchmark asks that a
// reported percentile have at least ten samples beyond it).
type summary struct {
	N       int
	P50     float64
	P99     float64
	Above99 int
}

// summarize sorts samples in place and reads nearest-rank percentiles.
func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{}
	}
	sort.Float64s(samples)
	s := summary{N: len(samples), P50: rank(samples, 0.50), P99: rank(samples, 0.99)}
	s.Above99 = len(samples) - rankIndex(len(samples), 0.99) - 1
	return s
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func rank(sorted []float64, q float64) float64 { return sorted[rankIndex(len(sorted), q)] }

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// longestGap returns the longest interval, in the units of its arguments,
// during [from, to] in which no event happened: the gaps between successive
// events, plus the lead-in from `from` to the first event and the tail from
// the last event to `to`. Events outside [from, to] are ignored; with no
// event inside, the whole interval is one gap. events is sorted in place.
func longestGap(events []int64, from, to int64) int64 {
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	prev, gap := from, int64(0)
	for _, e := range events {
		if e < from {
			continue
		}
		if e > to {
			break
		}
		if d := e - prev; d > gap {
			gap = d
		}
		prev = e
	}
	if d := to - prev; d > gap {
		gap = d
	}
	return gap
}

// sample is one latency observation: a client frame on the closed loop, an
// op on the open loop. ops counts the ops it completed (0 if it failed).
type sample struct {
	at  int64   // completion (or failure) time, ns on the nowNs clock
	ms  float64 // latency
	ops int
}

// slicedStats is a measured window cut into equal slices, one entry per
// slice. Each end-to-end figure is reported as the median over slices, so
// a transient burst of noise moves at most the slices it touched.
type slicedStats struct {
	opsPerS, p50, p99, cpuUsPerOp, allocBPerOp []float64
	minSamples                                 int // fewest latency samples in any slice
}

// slice cuts the window from `from` into len(marks)-1 slices of width ns.
// marks holds what was read at each slice boundary; throughput divides by
// the measured time between marks. Samples completing outside the window
// are ignored.
func slice(samples []sample, from, width int64, marks []mark) slicedStats {
	n := len(marks) - 1
	lat := make([][]float64, n)
	ops := make([]float64, n)
	for _, s := range samples {
		k := int((s.at - from) / width)
		if s.at < from || k >= n {
			continue
		}
		lat[k] = append(lat[k], s.ms)
		ops[k] += float64(s.ops)
	}
	var st slicedStats
	for k := 0; k < n; k++ {
		sum := summarize(lat[k])
		if k == 0 || sum.N < st.minSamples {
			st.minSamples = sum.N
		}
		done := math.Max(ops[k], 1)
		st.opsPerS = append(st.opsPerS, ops[k]/(float64(marks[k+1].at-marks[k].at)/1e9))
		st.p50 = append(st.p50, sum.P50)
		st.p99 = append(st.p99, sum.P99)
		st.cpuUsPerOp = append(st.cpuUsPerOp, (marks[k+1].cpu-marks[k].cpu)*1e6/done)
		st.allocBPerOp = append(st.allocBPerOp, (marks[k+1].alloc-marks[k].alloc)/done)
	}
	return st
}

// add appends another window's slices.
func (st *slicedStats) add(o slicedStats) {
	if len(st.p50) == 0 || o.minSamples < st.minSamples {
		st.minSamples = o.minSamples
	}
	st.opsPerS = append(st.opsPerS, o.opsPerS...)
	st.p50 = append(st.p50, o.p50...)
	st.p99 = append(st.p99, o.p99...)
	st.cpuUsPerOp = append(st.cpuUsPerOp, o.cpuUsPerOp...)
	st.allocBPerOp = append(st.allocBPerOp, o.allocBPerOp...)
}

// mark is the time, the process's CPU seconds and its cumulative allocated
// bytes at one slice boundary.
type mark struct {
	at         int64
	cpu, alloc float64
}
