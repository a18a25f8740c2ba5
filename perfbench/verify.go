package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/sim"

	// Each algorithm package registers its scenarios in init, exactly the
	// set cmd/sim imports.
	_ "repro/internal/arbiter"
	_ "repro/internal/cluster"
	_ "repro/internal/common2"
	_ "repro/internal/consensus"
	_ "repro/internal/group"
	_ "repro/internal/hierarchy"
	_ "repro/internal/liveness"
	_ "repro/internal/service"
	_ "repro/internal/universal"
)

const (
	// setupReps is how many times verify times its setup; setup_s is the
	// median.
	setupReps = 10
	// ciSeeds is the seed range [0, ciSeeds) the CI gate sweeps for every
	// scenario (cmd/sim -seeds 3000); verify sweeps windows of it.
	ciSeeds = 3000
	// seedsPerPass is how many seeds of every scenario one pass sweeps.
	seedsPerPass = 32
)

// seedWindow returns the first seed of the CI-range window that pass p of
// workload seed n sweeps.
func seedWindow(n uint64, p int) uint64 {
	return (n*37 + uint64(p)) % (ciSeeds / seedsPerPass) * seedsPerPass
}

// family groups scenarios by the subject they exercise.
type family struct {
	name, span string
	scenarios  []sim.Scenario
}

// exploreModel is one explorer job with the state count it must reach
// (cmd/explore's default inputs: process 0 proposes 0, the others 1).
type exploreModel struct {
	name, span string
	p          explore.Protocol
	inputs     []int
	want       int
}

var exploreModels = []exploreModel{
	{"tas5", "explore.tas5", explore.TASModel{Procs: 5}, []int{0, 1, 1, 1, 1}, 9374},
	{"of8", "explore.of8", explore.OFModel{Rounds: 8}, []int{0, 1}, 5365},
}

func families() []family {
	fams := []family{{name: "cluster"}, {name: "service"}, {name: "algorithms"}}
	for _, s := range sim.All() {
		i := 2
		switch s.Subject {
		case "cluster":
			i = 0
		case "service":
			i = 1
		}
		fams[i].scenarios = append(fams[i].scenarios, s)
	}
	for i := range fams {
		fams[i].span = "sim.sweep." + fams[i].name
	}
	return fams
}

// sampleBuf collects float samples from concurrent goroutines into a
// buffer allocated up front; samples beyond its capacity are dropped.
type sampleBuf struct {
	v []float64
	n atomic.Int64
}

func (b *sampleBuf) add(x float64) {
	if i := b.n.Add(1) - 1; i < int64(len(b.v)) {
		b.v[i] = x
	}
}

func (b *sampleBuf) values() []float64 { return b.v[:min(b.n.Load(), int64(len(b.v)))] }

// timedScenarios wraps scenarios so that seed i runs as seed off+i and every
// run's wall time lands in lat.
func timedScenarios(scenarios []sim.Scenario, off uint64, lat *sampleBuf) []sim.Scenario {
	out := make([]sim.Scenario, len(scenarios))
	for i, s := range scenarios {
		run := s.Run
		out[i] = sim.Scenario{Name: s.Name, Subject: s.Subject, Run: func(seed uint64, capture bool) sim.Outcome {
			t0 := nowNs()
			o := run(off+seed, capture)
			lat.add(ms(nowNs() - t0))
			return o
		}}
	}
	return out
}

// runVerify is the verification workload: passes of sim.Sweep over every
// registered scenario (one sweep per family, seedsPerPass seeds each, on
// GOMAXPROCS workers), each followed by the explorer on both models.
func runVerify(seed uint64, seconds float64, traced bool) *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	base := runtime.NumGoroutine()
	var tr *tracer
	if traced {
		tr = newTracer(1 << 12)
	}
	fams := families()

	// Setup: the time until every scenario has produced one verdict. A
	// failing verdict here is counted like one in the sweeps.
	var setups []float64
	var runs, failures int64
	firstFailure := ""
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for _, f := range fams {
			for _, s := range f.scenarios {
				out := s.Run(seedWindow(seed, 0), false)
				if i > 0 {
					continue
				}
				runs++
				if !out.OK() {
					failures++
					if firstFailure == "" {
						firstFailure = out.Token()
					}
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	var mu sync.Mutex
	var heapMax uint64
	stopSampling := func() {}
	if traced {
		stopSampling = sampler(sampleEvery, func() {
			h := heapBytes()
			mu.Lock()
			heapMax = max(heapMax, h)
			mu.Unlock()
		})
	}

	lat := &sampleBuf{v: make([]float64, 1<<18)}
	var sweepRuns, runs0, steps0, states, exploreFails int64
	exploreFailure := ""
	sweepNs := make([]int64, len(fams))
	var exploreNs int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	win := openWindow()
	passes := 0
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		for fi, f := range fams {
			t0 := nowNs()
			rep := sim.Sweep(timedScenarios(f.scenarios, seedWindow(seed, passes), lat),
				sim.Options{Seeds: seedsPerPass, Workers: runtime.GOMAXPROCS(0)})
			t1 := nowNs()
			tr.record(f.span, uint64(passes+1), t0, t1)
			sweepNs[fi] += t1 - t0
			sweepRuns += rep.Runs
			failures += rep.Failures
			for _, sr := range rep.Scenarios {
				if len(sr.FailureSamples) > 0 && firstFailure == "" {
					firstFailure = sr.FailureSamples[0].Token
				}
				if passes == 0 {
					steps0 += sr.Steps.Sum
				}
			}
			if passes == 0 {
				runs0 += rep.Runs
			}
		}
		for _, m := range exploreModels {
			t0 := nowNs()
			g, err := explore.Explore(m.p, m.inputs, 2000000)
			t1 := nowNs()
			tr.record(m.span, uint64(passes+1), t0, t1)
			exploreNs += t1 - t0
			if err != nil || g.Size() != m.want {
				exploreFails++
				if exploreFailure == "" {
					exploreFailure = fmt.Sprintf("explore %s: %d states, want %d (err %v)", m.name, sizeOf(g), m.want, err)
				}
				continue
			}
			states += int64(g.Size())
		}
	}
	cost := win.close()
	stopSampling()
	leaked := goroutinesAfter(base, 5*time.Second)

	perRun := lat.values()
	l := summarize(perRun)
	runs += sweepRuns
	n := math.Max(float64(sweepRuns), 1)
	sweepS := float64(sum(sweepNs)) / 1e9
	o.attempted = runs + int64(passes*len(exploreModels))
	o.failed = failures + exploreFails
	o.e2e["ops_per_s"] = float64(sweepRuns) / cost.seconds
	o.e2e["p50_ms"] = l.P50
	o.e2e["p99_ms"] = l.P99
	o.e2e["cpu_us_per_op"] = cost.cpuSeconds * 1e6 / n
	o.e2e["alloc_b_per_op"] = cost.allocBytes / n
	runsPerS := float64(sweepRuns) / sweepS
	statesPerS := float64(states) / (float64(exploreNs) / 1e9)
	o.figures = append(o.figures,
		figure{"passes", "count", float64(passes)},
		figure{"latency_samples", "count", float64(l.N)},
		figure{"samples_above_p99", "count", float64(l.Above99)},
		figure{"failed_ratio", "ratio", float64(failures) / float64(runs)},
		figure{"runs_per_s", "1/s", runsPerS},
		figure{"states_per_s", "1/s", statesPerS})

	o.check("sweep_failures", failures == 0, "%d of %d runs failed %s", failures, runs, firstFailure)
	o.check("explore_states", exploreFails == 0, "%d of %d explorer jobs missed their state count %s",
		exploreFails, passes*len(exploreModels), exploreFailure)
	o.check("goroutines", leaked == 0, "%d goroutines leaked after the sweeps", leaked)
	if !traced {
		return o
	}

	spans := tr.spans()
	L := o.layers
	zeroKV(L)
	L["sim.runs"] = float64(runs0)
	L["sim.steps"] = float64(steps0)
	L["sim.runs_per_s"] = runsPerS
	for _, f := range fams {
		L["sim.wall_s."+f.name] = sumMs(durationsOf(spans, f.span)) / 1e3
	}
	for _, m := range exploreModels {
		L["explore.states."+m.name] = float64(m.want)
		L["explore.wall_ms."+m.name] = median(durationsOf(spans, m.span))
	}
	L["explore.states_per_s"] = statesPerS
	L["go.gc_cycles"] = cost.gcCycles
	L["go.gc_pause_ms"] = cost.gcPauseMs
	L["go.heap_peak_mb"] = float64(heapMax) / (1 << 20)
	L["go.goroutines_leaked"] = float64(leaked)
	L["trace.spans"] = float64(len(spans))
	L["trace.spans_dropped"] = float64(tr.dropped.Load())
	L["trace.linked_ratio"] = 0
	writeTraceFile(tr, "verify", seed)
	return o
}

func sizeOf(g *explore.Graph) int {
	if g == nil {
		return 0
	}
	return g.Size()
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func sumMs(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// zeroVerify sets the verify-only layers to zero on a kv-* run.
func zeroVerify(L map[string]float64) {
	for _, m := range perLayer {
		if hasPrefix(m.Name, "sim.", "explore.") {
			L[m.Name] = 0
		}
	}
}

// zeroKV sets the kv-only layers to zero on a verify run.
func zeroKV(L map[string]float64) {
	for _, m := range perLayer {
		if hasPrefix(m.Name, "client.", "wire.", "service.", "cluster.") {
			L[m.Name] = 0
		}
	}
}

func hasPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}
