package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

func TestSummarizePercentilesAndTailCount(t *testing.T) {
	var xs []float64
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.P99 != 990 || s.Above99 != 10 {
		t.Fatalf("summary = %+v, want N=1000 P50=500 P99=990 Above99=10", s)
	}
	if s := summarize([]float64{7}); s.P50 != 7 || s.P99 != 7 || s.Above99 != 0 {
		t.Fatalf("one sample: %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("no samples: %+v", s)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestLongestGap(t *testing.T) {
	cases := []struct {
		name     string
		events   []int64
		from, to int64
		want     int64
	}{
		{"between events", []int64{50, 10, 90, 20}, 0, 100, 40},
		{"lead-in from the crash", []int64{70, 80}, 0, 100, 70},
		{"tail to the end of the run", []int64{5, 10}, 0, 100, 90},
		{"events outside the interval ignored", []int64{-50, 40, 60, 500}, 0, 100, 40},
		{"no completion at all", nil, 100, 350, 250},
	}
	for _, c := range cases {
		if got := longestGap(c.events, c.from, c.to); got != c.want {
			t.Errorf("%s: longestGap = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesLinksByOpIDAndSubtractsCoverage(t *testing.T) {
	spans := []span{
		{name: "client.frame", id: 1, start: 0, end: 100e6},
		{name: "service.backend", id: 1, start: 20e6, end: 70e6},
		// Two overlapping children, one sticking out past the parent.
		{name: "client.frame", id: 2, start: 0, end: 100e6},
		{name: "service.backend", id: 2, start: 10e6, end: 40e6},
		{name: "service.backend", id: 2, start: 30e6, end: 120e6},
		// A parent whose backend span never arrived.
		{name: "client.frame", id: 3, start: 0, end: 10e6},
		// A child of another layer's span is not linked.
		{name: "cluster.backend", id: 3, start: 0, end: 5e6},
	}
	l := selfTimes(spans, "client.frame", "service.backend")
	if l.Unlinked != 1 || len(l.Parent) != 2 {
		t.Fatalf("linked %d, unlinked %d; want 2 and 1", len(l.Parent), l.Unlinked)
	}
	want := []struct{ parent, child, self float64 }{{100, 50, 50}, {100, 90, 10}}
	for i, w := range want {
		if l.Parent[i] != w.parent || l.Child[i] != w.child || l.Self[i] != w.self {
			t.Errorf("parent %d: total/child/self = %v/%v/%v, want %v/%v/%v",
				i, l.Parent[i], l.Child[i], l.Self[i], w.parent, w.child, w.self)
		}
		if l.Self[i]+l.Child[i] != l.Parent[i] {
			t.Errorf("parent %d: self + child does not account for the parent span", i)
		}
	}
}

func TestTracerDropsWhenFullAndNilRecordsNothing(t *testing.T) {
	var none *tracer
	none.record("client.frame", 1, 0, 1) // must not panic
	tr := newTracer(2)
	for i := 0; i < 5; i++ {
		tr.record("client.frame", uint64(i), 0, 1)
	}
	if n, d := len(tr.spans()), tr.dropped.Load(); n != 2 || d != 3 {
		t.Fatalf("kept %d dropped %d, want 2 and 3", n, d)
	}
}

// stallBackend answers every op at once, except that the op with ID
// stallID holds the backend for stall, so every op that arrives meanwhile
// waits behind it.
type stallBackend struct {
	mu      sync.Mutex
	stallID uint64
	stall   time.Duration
}

func (b *stallBackend) Do(_ context.Context, op service.Op) (service.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if op.ID == b.stallID {
		time.Sleep(b.stall)
	}
	return service.Result{OK: true}, nil
}

func (b *stallBackend) DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error) {
	out := make([]service.Result, len(ops))
	for i, op := range ops {
		out[i], _ = b.Do(ctx, op)
	}
	return out, nil
}

func (b *stallBackend) Stats() service.Stats { return service.Stats{} }

func TestOpenLoopChargesStallToOpsDueBehindIt(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The op with index 50 (ID 51) is due 50 ms in, at 1000 ops/s.
	srv := wire.NewServer(&stallBackend{stallID: 51, stall: 50 * time.Millisecond}, wire.ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	conn, err := wire.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ops := makeOps(1, 64, opMix{getPct: 100, keys: 8})
	r := openLoop([]*wire.Conn{conn}, ops, 0, 1000, nowNs(), 200*time.Millisecond, nil, 2*time.Second, nil)
	conn.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-served

	if r.attempted != 200 || r.completed != 200 || r.failed() != 0 {
		t.Fatalf("attempted %d completed %d failed %d, want 200/200/0", r.attempted, r.completed, r.failed())
	}
	lat := make([]float64, len(r.samples))
	for i, s := range r.samples {
		if want := ms(r.done[i] - r.due[i]); s.ms != want {
			t.Fatalf("op %d: latency %v ms is not measured from its due time (%v ms)", i, s.ms, want)
		}
		lat[i] = s.ms
	}
	// Ops due 10 ms into the stall wait out the remaining ~40 ms; an op due
	// before the stall and one due well after it do not.
	if lat[60] < 30 {
		t.Errorf("op due 10 ms into a 50 ms stall took %.1f ms; the stall was not charged to it", lat[60])
	}
	if lat[80] < 10 {
		t.Errorf("op due 30 ms into a 50 ms stall took %.1f ms; the stall was not charged to it", lat[80])
	}
	if lat[10] > 25 || lat[180] > 25 {
		t.Errorf("ops clear of the stall took %.1f and %.1f ms", lat[10], lat[180])
	}
}

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json, at the
// repository root, in step with the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestSliceCutsWindowAndNormalizesByMarks(t *testing.T) {
	const sec = int64(1e9)
	samples := []sample{
		{at: 10, ms: 1, ops: 64},
		{at: sec - 1, ms: 3, ops: 64},
		{at: sec + 5, ms: 2, ops: 64},
		{at: sec + 6, ms: 50},             // a failed frame: a latency sample, no ops
		{at: -5, ms: 999, ops: 64},        // before the window
		{at: 2*sec + 1, ms: 999, ops: 64}, // after it
	}
	marks := []mark{{at: 0, cpu: 0, alloc: 0}, {at: sec, cpu: 0.5, alloc: 6400}, {at: 2 * sec, cpu: 0.75, alloc: 6464}}
	st := slice(samples, 0, sec, marks)
	want := slicedStats{
		opsPerS:     []float64{128, 64},
		p50:         []float64{1, 2},
		p99:         []float64{3, 50},
		cpuUsPerOp:  []float64{0.5e6 / 128, 0.25e6 / 64},
		allocBPerOp: []float64{50, 1},
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"ops/s", st.opsPerS, want.opsPerS}, {"p50", st.p50, want.p50}, {"p99", st.p99, want.p99},
		{"cpu", st.cpuUsPerOp, want.cpuUsPerOp}, {"alloc", st.allocBPerOp, want.allocBPerOp},
	} {
		if len(c.got) != 2 || c.got[0] != c.want[0] || c.got[1] != c.want[1] {
			t.Errorf("%s per slice = %v, want %v", c.name, c.got, c.want)
		}
	}
	if st.minSamples != 2 {
		t.Errorf("minSamples = %d, want 2", st.minSamples)
	}
}
