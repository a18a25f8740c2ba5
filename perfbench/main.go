// Command perfbench is the repository benchmark: it builds the system
// in-process through its public constructors, as cmd/served does, drives
// one workload for a fixed time, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload kv-single --seed 1 --seconds 10 --trace 0
//
// Workloads: kv-single, kv-cluster, kv-failover, verify (see README.md in
// this directory), or "all" to run each in turn. --trace 0 reports the
// end-to-end metrics of an untraced run; --trace 1 runs the workload once
// untraced and once traced, and reports the per-layer metrics of the traced
// run plus the tracing overhead. The exit status is non-zero when any
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of an untraced run that BENCHMARK.json gates,
// reported on every workload. An "op" is one client operation on the kv-*
// workloads and one sweep run on verify; README.md gives each metric's
// definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"alloc_b_per_op", "B", "lower"},
}

// ungated are end-to-end metrics every run prints, and whose tracing
// overhead a traced run reports, but that BENCHMARK.json does not gate:
// on a shared 2-vCPU machine their run-to-run spread on kv-cluster exceeds
// the largest bound a gate may use (README.md has the measurements).
var ungated = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
}

// perLayer are the metrics of a traced run, reported on every workload
// (zero where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"client.gen_lag_ms.p99", "ms", "lower"},
	{"client.failed_ratio", "ratio", "lower"},
	{"client.unavail_s", "s", "lower"},
	{"wire.frames", "count", "higher"},
	{"wire.rtt_ms.p50", "ms", "lower"},
	{"wire.rtt_ms.p99", "ms", "lower"},
	{"wire.self_ms.p50", "ms", "lower"},
	{"wire.self_ms.p99", "ms", "lower"},
	{"service.backend_ms.p50", "ms", "lower"},
	{"service.backend_ms.p99", "ms", "lower"},
	{"service.commit_ms.p50", "ms", "lower"},
	{"service.commit_ms.p99", "ms", "lower"},
	{"service.ops_per_batch", "ops", "higher"},
	{"service.queue_depth.max", "count", "lower"},
	{"service.audit.windows", "count", "higher"},
	{"service.audit.gaps", "count", "lower"},
	{"service.audit.dropped_ops", "count", "lower"},
	{"service.restarts", "count", "lower"},
	{"cluster.backend_ms.p50", "ms", "lower"},
	{"cluster.backend_ms.p99", "ms", "lower"},
	{"cluster.msgs_per_op.append", "msgs/op", "lower"},
	{"cluster.msgs_per_op.ack", "msgs/op", "lower"},
	{"cluster.msgs_per_op.route", "msgs/op", "lower"},
	{"cluster.msgs_per_op.done", "msgs/op", "lower"},
	{"cluster.msgs_per_op.heartbeat", "msgs/op", "lower"},
	{"cluster.ops_per_entry", "ops", "higher"},
	{"cluster.route_retries", "count", "lower"},
	{"cluster.redirects", "count", "lower"},
	{"cluster.elections", "count", "lower"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.condemned", "count", "lower"},
	{"cluster.drops.unencodable", "count", "lower"},
	{"cluster.drops.no_conn", "count", "lower"},
	{"cluster.drops.bad_header", "count", "lower"},
	{"cluster.drops.bad_rep", "count", "lower"},
	{"cluster.drops.bad_opcode", "count", "lower"},
	{"cluster.drops.net_loss", "count", "lower"},
	{"cluster.drops.net_cut", "count", "lower"},
	{"cluster.follower_lag.max", "entries", "lower"},
	{"cluster.setup_elections", "count", "lower"},
	{"sim.runs", "count", "higher"},
	{"sim.steps", "count", "higher"},
	{"sim.runs_per_s", "1/s", "higher"},
	{"sim.wall_s.cluster", "s", "lower"},
	{"sim.wall_s.service", "s", "lower"},
	{"sim.wall_s.algorithms", "s", "lower"},
	{"explore.states.tas5", "count", "higher"},
	{"explore.states.of8", "count", "higher"},
	{"explore.wall_ms.tas5", "ms", "lower"},
	{"explore.wall_ms.of8", "ms", "lower"},
	{"explore.states_per_s", "1/s", "higher"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.heap_peak_mb", "MB", "lower"},
	{"go.goroutines_leaked", "count", "lower"},
	{"trace.spans", "count", "higher"},
	{"trace.spans_dropped", "count", "lower"},
	{"trace.linked_ratio", "ratio", "higher"},
	{"trace.overhead.setup_s", "s", "lower"},
	{"trace.overhead.ops_per_s", "1/s", "higher"},
	{"trace.overhead.p50_ms", "ms", "lower"},
	{"trace.overhead.p99_ms", "ms", "lower"},
	{"trace.overhead.cpu_us_per_op", "us", "lower"},
	{"trace.overhead.alloc_b_per_op", "B", "lower"},
}

var workloads = map[string]func(seed uint64, seconds float64, traced bool) *outcome{
	"kv-single":   runKVSingle,
	"kv-cluster":  runKVCluster,
	"kv-failover": runKVFailover,
	"verify":      runVerify,
}

// outcome is one run of one workload.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	// figures are workload-specific numbers that are not defined on every
	// workload (failed_ratio, unavail_s, runs_per_s, states_per_s,
	// startup-race counts), printed for readers.
	figures []figure
	layers  map[string]float64
	checks  []check
	// firstErr is the first error a client call returned, if any.
	firstErr string
}

type figure struct {
	name, unit string
	value      float64
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (o *outcome) check(name string, ok bool, detail string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(detail, args...)})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// epoch anchors nowNs, the one clock every span and latency sample uses.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

func main() {
	workload := flag.String("workload", "", "kv-single | kv-cluster | kv-failover | verify | all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from a traced run (plus tracing overhead); 0 = end-to-end metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"kv-single", "kv-cluster", "kv-failover", "verify"}
	}
	all := result{Correct: true, Metrics: map[string]metricVal{}}
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		res := runOne(name, run, *seed, *seconds, *trace == 1)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			all.Metrics[k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

// runOne runs a workload in the requested mode and prints its report. A
// traced run is bracketed by two untraced runs of half the length, and the
// tracing overhead is measured against their mean, so drift in the
// machine's speed over the run does not read as overhead.
func runOne(name string, run func(uint64, float64, bool) *outcome, seed uint64, seconds float64, traced bool) result {
	fmt.Printf("== %s seed=%d seconds=%g trace=%v gomaxprocs=%d\n", name, seed, seconds, traced, runtime.GOMAXPROCS(0))
	if !traced {
		o := run(seed, seconds, false)
		printOutcome("untraced", o)
		return report(o, endToEnd, o.e2e)
	}
	before := run(seed, seconds/2, false)
	printOutcome("untraced (before)", before)
	t := run(seed, seconds, true)
	printOutcome("traced", t)
	after := run(seed, seconds/2, false)
	printOutcome("untraced (after)", after)
	for _, m := range append(endToEnd, ungated...) {
		t.layers["trace.overhead."+m.Name] = t.e2e[m.Name] - (before.e2e[m.Name]+after.e2e[m.Name])/2
	}
	L := t.layers
	fmt.Println("-- per-layer (traced run)")
	if be := L["service.backend_ms.p50"] + L["cluster.backend_ms.p50"]; be > 0 {
		fmt.Printf("  accounting: wire.rtt_ms.p50 %.4g ms; wire.self_ms.p50 + backend_ms.p50 %.4g ms; %.3g of frames linked\n",
			L["wire.rtt_ms.p50"], L["wire.self_ms.p50"]+be, L["trace.linked_ratio"])
	}
	for _, m := range perLayer {
		fmt.Printf("  %-32s %14.6g %s\n", m.Name, L[m.Name], m.Unit)
	}
	res := report(t, perLayer, L)
	for _, o := range []*outcome{before, after} {
		res.Correct = res.Correct && o.correct()
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	return res
}

// report builds the result line of one outcome from the named metrics.
func report(o *outcome, defs []metricDef, values map[string]float64) result {
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricVal{}}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok {
			panic("perfbench: metric " + m.Name + " not computed")
		}
		res.Metrics[m.Name] = metricVal{Value: v, Unit: m.Unit}
	}
	return res
}

func printOutcome(mode string, o *outcome) {
	fmt.Printf("-- %s run: attempted=%d failed=%d\n", mode, o.attempted, o.failed)
	for _, m := range append(endToEnd, ungated...) {
		fmt.Printf("  %-32s %14.6g %s\n", m.Name, o.e2e[m.Name], m.Unit)
	}
	for _, f := range o.figures {
		fmt.Printf("  %-32s %14.6g %s\n", f.name, f.value, f.unit)
	}
	if o.firstErr != "" {
		fmt.Printf("  first error: %s\n", o.firstErr)
	}
	for _, c := range o.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %-28s %s\n", verdict, c.name, c.detail)
	}
}

// window measures process-wide costs over a measured interval: wall time,
// CPU time (getrusage), heap bytes allocated, GC cycles and GC pause time.
type window struct {
	t0                  int64
	cpu0                float64
	alloc0, gc0, pause0 uint64
}

type windowCost struct {
	seconds, cpuSeconds, allocBytes float64
	gcCycles, gcPauseMs             float64
}

func (c *windowCost) add(o windowCost) {
	c.seconds += o.seconds
	c.cpuSeconds += o.cpuSeconds
	c.allocBytes += o.allocBytes
	c.gcCycles += o.gcCycles
	c.gcPauseMs += o.gcPauseMs
}

func openWindow() window {
	w := window{t0: nowNs(), cpu0: cpuSeconds()}
	w.alloc0, w.gc0, w.pause0 = gcCounters()
	return w
}

func (w window) close() windowCost {
	alloc, gc, pause := gcCounters()
	return windowCost{
		seconds:    float64(nowNs()-w.t0) / 1e9,
		cpuSeconds: cpuSeconds() - w.cpu0,
		allocBytes: float64(alloc - w.alloc0),
		gcCycles:   float64(gc - w.gc0),
		gcPauseMs:  float64(pause-w.pause0) / 1e6,
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcCounters reads cumulative heap bytes allocated, completed GC cycles and
// total stop-the-world pause ns.
func gcCounters() (alloc, cycles, pauseNs uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), ms.PauseTotalNs
}

// marker reads a mark at from + k*width for k = 0..n on its own goroutine;
// wait returns the marks once the last one is read.
func marker(from, width int64, n int) (wait func() []mark) {
	marks := make([]mark, n+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := range marks {
			sleepUntil(from + int64(k)*width)
			marks[k] = mark{at: nowNs(), cpu: cpuSeconds(), alloc: float64(allocBytes())}
		}
	}()
	return func() []mark { <-done; return marks }
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapBytes is the live-and-unswept heap object bytes, for peak sampling.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler calls fn every interval on its own goroutine until stopped; stop
// returns once the goroutine has exited.
func sampler(interval time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// goroutinesAfter waits up to limit for the goroutine count to fall back
// to base and returns how many goroutines remain above it.
func goroutinesAfter(base int, limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}
