package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/sim"
)

const (
	// deployWindow is how long a kv run measures each deployment it
	// builds: a run of --seconds builds, measures and tears down
	// seconds/deployWindow deployments in turn, and setup_s is their median
	// setup. Windows are kept short and equal because a cluster's
	// throughput drifts with its age.
	deployWindow = 2 * time.Second
	// grace is how long ops may stay unanswered after the load stops
	// before they are given up on and counted as failed.
	grace = 5 * time.Second
	// traceSpans sizes the preallocated span buffer.
	traceSpans = 1 << 19
	// warmup is how long the unmeasured warm-up deployment runs.
	warmup = 2 * time.Second
	// sliceWidth is the target width of the slices a deployment's window
	// is cut into (the nearest whole number of them); end-to-end figures
	// are medians over slices.
	sliceWidth = time.Second
	// sampleEvery paces the traced run's gauge sampling.
	sampleEvery = 20 * time.Millisecond
)

// kvSpec is one kv-* workload.
type kvSpec struct {
	name    string
	mix     opMix
	cluster bool
	front   int // front-end node; -1 picks one that does not own shard 0
	// open-loop rate in ops/s; 0 runs the closed loop.
	rate float64
}

func runKVSingle(seed uint64, seconds float64, traced bool) *outcome {
	return runKV(kvSpec{name: "kv-single", mix: opMix{getPct: 60, putPct: 30, keys: 16384, zipf: 1.2}}, seed, seconds, traced)
}

func runKVCluster(seed uint64, seconds float64, traced bool) *outcome {
	return runKV(kvSpec{name: "kv-cluster", mix: opMix{getPct: 10, putPct: 80, keys: 131072}, cluster: true}, seed, seconds, traced)
}

func runKVFailover(seed uint64, seconds float64, traced bool) *outcome {
	return runKV(kvSpec{name: "kv-failover", mix: opMix{getPct: 50, putPct: 50, keys: 1024}, cluster: true, front: -1, rate: 2000}, seed, seconds, traced)
}

// snapshot is the counters read at the edges of the measured window.
type snapshot struct {
	stores  []service.Stats
	prom    map[string]float64
	status  cluster.Status
	entries uint64
}

func takeSnapshot(d *deployment) snapshot {
	s := snapshot{}
	for _, st := range d.allStores() {
		s.stores = append(s.stores, st.Stats())
	}
	if d.nodes != nil {
		s.prom = d.promCounters()
		s.status = d.clusterTotals()
		s.entries = d.entriesCommitted()
	}
	return s
}

// kvRun accumulates one kv run over its deployments.
type kvRun struct {
	spec   kvSpec
	tr     *tracer
	setups []float64
	ls     loadStats
	sliced slicedStats
	cost   windowCost
	genLag []float64
	// kv-failover: per deployment, the longest gap between completions on
	// any shard after the crash; and how often the victim was the client's
	// front end.
	unavail     []float64
	frontKilled int
	// Counter changes over the measured windows, and totals over each
	// deployment's whole life (setup included), summed over deployments.
	stores                    storeTotals
	promDelta, promTotal      map[string]float64
	status                    cluster.Status // window deltas
	condemned                 int64
	entries                   uint64
	setupElections, raceHits  int64
	violations, restarts      int64
	violationSample           string
	disagreements             []string
	stuckTeardowns            int64 // deployments whose wire servers could not drain
	queueMax, lagMax, heapMax uint64
}

func newKVRun(spec kvSpec, tr *tracer) *kvRun {
	return &kvRun{spec: spec, tr: tr, promDelta: map[string]float64{}, promTotal: map[string]float64{}}
}

func runKV(spec kvSpec, seed uint64, seconds float64, traced bool) *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	base := runtime.NumGoroutine()
	ops := makeOps(seed, 1<<16, spec.mix)
	// Warm-up: one unmeasured deployment under the same load, so the heap
	// has grown and the process's memory is backed before timing starts.
	// Its ops and checks count; its timings do not.
	warm := newKVRun(spec, nil)
	warm.deployment(ops, 0, warmup)
	var tr *tracer
	if traced {
		tr = newTracer(traceSpans)
	}
	r := newKVRun(spec, tr)
	deployments := max(1, int(math.Round(seconds*float64(time.Second)/float64(deployWindow))))
	for i := 0; i < deployments; i++ {
		r.deployment(ops, uint64(i+1)<<56, deployWindow)
	}
	leaked := goroutinesAfter(base, 5*time.Second)
	ls := &r.ls
	r.violations += warm.violations
	r.disagreements = append(r.disagreements, warm.disagreements...)
	r.stuckTeardowns += warm.stuckTeardowns
	if r.violationSample == "" {
		r.violationSample = warm.violationSample
	}
	ls.attempted += warm.ls.attempted
	ls.errored += warm.ls.errored
	ls.unanswered += warm.ls.unanswered
	ls.badPuts += warm.ls.badPuts
	if ls.firstErr == "" {
		ls.firstErr = warm.ls.firstErr
	}

	// End-to-end metrics: medians over every deployment's slices.
	all := make([]float64, len(ls.samples))
	for i, s := range ls.samples {
		all[i] = s.ms
	}
	lat := summarize(all)
	completed := math.Max(float64(ls.completed), 1)
	o.attempted, o.failed = ls.attempted, ls.failed()
	o.e2e["setup_s"] = median(r.setups)
	o.e2e["ops_per_s"] = median(r.sliced.opsPerS)
	o.e2e["p50_ms"] = median(r.sliced.p50)
	o.e2e["p99_ms"] = median(r.sliced.p99)
	o.e2e["cpu_us_per_op"] = median(r.sliced.cpuUsPerOp)
	o.e2e["alloc_b_per_op"] = median(r.sliced.allocBPerOp)
	failedRatio := float64(ls.failed()) / math.Max(float64(ls.attempted), 1)
	unavail := 0.0
	for _, u := range r.unavail {
		unavail = math.Max(unavail, u)
	}
	o.figures = append(o.figures,
		figure{"deployments", "count", float64(deployments)},
		figure{"slices", "count", float64(len(r.sliced.p50))},
		figure{"min_samples_per_slice", "count", float64(r.sliced.minSamples)},
		figure{"run_ops_per_s", "1/s", float64(ls.completed) / r.cost.seconds},
		figure{"run_p50_ms", "ms", lat.P50},
		figure{"run_p99_ms", "ms", lat.P99},
		figure{"run_samples", "count", float64(lat.N)},
		figure{"run_samples_above_p99", "count", float64(lat.Above99)},
		figure{"failed_ratio", "ratio", failedRatio},
		figure{"unanswered_ops", "count", float64(ls.unanswered)})
	if spec.rate > 0 {
		o.figures = append(o.figures,
			figure{"unavail_s", "s", unavail},
			figure{"unavail_s.median", "s", median(r.unavail)},
			figure{"victim_was_front_end", "count", float64(r.frontKilled)})
	}
	if spec.cluster {
		o.figures = append(o.figures,
			figure{"stuck_teardowns", "deployments", float64(r.stuckTeardowns)},
			figure{"setup_race_hits", "deployments", float64(r.raceHits)},
			figure{"setup_elections", "count", float64(r.setupElections)},
			figure{"condemned", "count", float64(r.condemned)},
			figure{"drops_no_conn", "count", r.promTotal[`cluster_frames_dropped_total{reason="no_conn"}`]},
			figure{"appends_per_op", "msgs/op", r.promDelta[`cluster_messages_sent_total{kind="append"}`] / completed})
	}

	// Correctness.
	o.check("audit_violations", r.violations == 0, "%d linearizability violations %s", r.violations, r.violationSample)
	o.check("puts_ok", ls.badPuts == 0, "%d answered puts not OK", ls.badPuts)
	if spec.cluster {
		o.check("replicas_agree", len(r.disagreements) == 0, "%d of %d deployments disagree %s",
			len(r.disagreements), deployments, strings.Join(r.disagreements, "; "))
	}
	o.check("goroutines", leaked == 0, "%d goroutines leaked after teardown", leaked)
	o.firstErr = ls.firstErr
	if !traced {
		return o
	}

	// Per-layer metrics from the traced run.
	spans := r.tr.spans()
	client, backend, layer := "client.frame", "service.backend", "service"
	if spec.rate > 0 {
		client = "client.op"
	}
	if spec.cluster {
		backend, layer = "cluster.backend", "cluster"
	}
	link := selfTimes(spans, client, backend)
	rtt, self, be := summarize(link.Parent), summarize(link.Self), summarize(link.Child)
	L := o.layers
	zeroVerify(L)
	L["client.gen_lag_ms.p99"] = summarize(r.genLag).P99
	L["client.failed_ratio"] = failedRatio
	L["client.unavail_s"] = unavail
	L["wire.frames"] = float64(len(durationsOf(spans, client)))
	L["wire.rtt_ms.p50"], L["wire.rtt_ms.p99"] = rtt.P50, rtt.P99
	L["wire.self_ms.p50"], L["wire.self_ms.p99"] = self.P50, self.P99
	L["service.backend_ms.p50"], L["service.backend_ms.p99"] = 0, 0
	L["cluster.backend_ms.p50"], L["cluster.backend_ms.p99"] = 0, 0
	L[layer+".backend_ms.p50"], L[layer+".backend_ms.p99"] = be.P50, be.P99

	st := r.stores
	L["service.commit_ms.p50"] = float64(st.lat.Quantile(0.50)) / 1e6
	L["service.commit_ms.p99"] = float64(st.lat.Quantile(0.99)) / 1e6
	L["service.ops_per_batch"] = st.ops / math.Max(st.batches, 1)
	L["service.queue_depth.max"] = float64(r.queueMax)
	L["service.audit.windows"] = st.windows
	L["service.audit.gaps"] = st.gaps
	L["service.audit.dropped_ops"] = st.dropped
	L["service.restarts"] = float64(r.restarts)

	for _, k := range []string{"append", "ack", "route", "done", "heartbeat"} {
		L["cluster.msgs_per_op."+k] = r.promDelta[`cluster_messages_sent_total{kind="`+k+`"}`] / completed
	}
	L["cluster.ops_per_entry"] = 0
	if r.entries > 0 {
		L["cluster.ops_per_entry"] = float64(ls.completed) / float64(r.entries)
	}
	L["cluster.route_retries"] = float64(r.status.RouteRetries)
	L["cluster.redirects"] = float64(r.status.Redirects)
	L["cluster.elections"] = float64(r.status.Elections)
	L["cluster.failovers"] = float64(r.status.Failovers)
	L["cluster.condemned"] = float64(r.condemned)
	for _, reason := range []string{"unencodable", "no_conn", "bad_header", "bad_rep", "bad_opcode", "net_loss", "net_cut"} {
		L["cluster.drops."+reason] = r.promTotal[`cluster_frames_dropped_total{reason="`+reason+`"}`]
	}
	L["cluster.follower_lag.max"] = float64(r.lagMax)
	L["cluster.setup_elections"] = float64(r.setupElections)

	L["go.gc_cycles"] = r.cost.gcCycles
	L["go.gc_pause_ms"] = r.cost.gcPauseMs
	L["go.heap_peak_mb"] = float64(r.heapMax) / (1 << 20)
	L["go.goroutines_leaked"] = float64(leaked)
	L["trace.spans"] = float64(len(spans))
	L["trace.spans_dropped"] = float64(r.tr.dropped.Load())
	L["trace.linked_ratio"] = float64(len(link.Parent)) / math.Max(float64(len(link.Parent)+link.Unlinked), 1)
	writeTraceFile(r.tr, spec.name, seed)
	return o
}

// deployment builds the system once (timing the setup), drives the load on
// it for dur, checks it, tears it down, and folds what it saw into r. The
// client stamps op IDs from idBase up, so spans of different deployments
// never share an ID.
func (r *kvRun) deployment(ops []service.Op, idBase uint64, dur time.Duration) {
	spec, tr := r.spec, r.tr
	t0 := time.Now()
	var d *deployment
	var err error
	if spec.cluster {
		d, err = setupCluster(tr, spec.front)
	} else {
		d, err = setupSingle(tr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", spec.name, err)
		os.Exit(1)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())

	// Gauges sampled during the traced window.
	var mu sync.Mutex
	stopSampling := func() {}
	if tr != nil {
		stopSampling = sampler(sampleEvery, func() {
			var q, lag uint64
			for _, st := range d.allStores() {
				for _, depth := range st.Stats().QueueDepth {
					q = max(q, uint64(depth))
				}
			}
			if spec.cluster {
				lag = d.followerLag()
			}
			h := heapBytes()
			mu.Lock()
			r.queueMax, r.lagMax, r.heapMax = max(r.queueMax, q), max(r.lagMax, lag), max(r.heapMax, h)
			mu.Unlock()
		})
	}

	before := takeSnapshot(d)
	win := openWindow()
	start := nowNs() + int64(10*time.Millisecond)
	slices := max(1, int((dur+sliceWidth/2)/sliceWidth))
	width := int64(dur) / int64(slices)
	waitMarks := marker(start, width, slices)
	var ls loadStats
	setupElections := int64(-1)
	if spec.rate == 0 {
		ls = closedLoop(d.conns, ops, idBase, start, dur, 4, 64, tr, grace)
	} else {
		victim := -1
		var crashAt int64
		o := openLoop(d.conns, ops, idBase, spec.rate, start, dur, tr, grace, func() {
			victim = d.shard0Owner()
			setupElections = d.clusterTotals().Elections
			crashAt = nowNs()
			d.crash(victim)
		})
		ls = o.loadStats
		r.genLag = append(r.genLag, o.genLag...)
		// The longest gap on any one shard: the victim's shards wait out
		// the failover, and a shard the victim did not own stalls too if
		// the crash leaves it without a quorum.
		events := make([][]int64, numShards)
		for i, done := range o.done {
			if done != 0 {
				s := service.ShardIndex(ops[i%len(ops)].Key, numShards)
				events[s] = append(events[s], done)
			}
		}
		gap := int64(0)
		for _, ev := range events {
			gap = max(gap, longestGap(ev, crashAt, start+int64(dur)))
		}
		r.unavail = append(r.unavail, float64(gap)/1e9)
		if victim == d.front {
			r.frontKilled++
		}
	}
	cost := win.close()
	stopSampling()
	after := takeSnapshot(d)
	r.sliced.add(slice(ls.samples, start, width, waitMarks()))

	if spec.cluster {
		if err := d.replicasAgree(5 * time.Second); err != nil {
			r.disagreements = append(r.disagreements, err.Error())
		}
		if setupElections < 0 { // no crash: every election was unprovoked
			setupElections = d.clusterTotals().Elections
		}
		r.setupElections += setupElections
		if setupElections > 0 {
			r.raceHits++
		}
	}
	for _, st := range d.allStores() {
		s := st.Stats()
		r.violations += s.Audit.Violations
		r.restarts += s.Supervision.Restarts
		if len(s.Audit.ViolationSamples) > 0 && r.violationSample == "" {
			r.violationSample = s.Audit.ViolationSamples[0]
		}
	}
	final := takeSnapshot(d)
	if d.close() {
		r.stuckTeardowns++
	}

	r.ls.merge(&ls)
	r.cost.add(cost)
	r.stores.add(storeDelta(after.stores, before.stores))
	for k, v := range after.prom {
		r.promDelta[k] += v - before.prom[k]
	}
	for k, v := range final.prom {
		r.promTotal[k] += v
	}
	r.status.RouteRetries += after.status.RouteRetries - before.status.RouteRetries
	r.status.Redirects += after.status.Redirects - before.status.Redirects
	r.status.Elections += after.status.Elections - before.status.Elections
	r.status.Failovers += after.status.Failovers - before.status.Failovers
	r.condemned += final.status.Condemned
	r.entries += after.entries - before.entries
}

// storeTotals is the change in the store counters over a window, summed
// over stores.
type storeTotals struct {
	lat                                  sim.Histogram // submit-to-commit ns, every op kind
	ops, batches, windows, gaps, dropped float64
}

func (t *storeTotals) add(o storeTotals) {
	t.lat.Merge(o.lat)
	t.ops += o.ops
	t.batches += o.batches
	t.windows += o.windows
	t.gaps += o.gaps
	t.dropped += o.dropped
}

func storeDelta(after, before []service.Stats) storeTotals {
	var t storeTotals
	for i := range after {
		a, b := after[i], before[i]
		for kind, l := range a.Latency {
			h := l.Hist
			bh := b.Latency[kind].Hist
			h.Buckets = append([]int64(nil), h.Buckets...)
			for j, c := range bh.Buckets {
				h.Buckets[j] -= c
			}
			h.Count -= bh.Count
			h.Sum -= bh.Sum
			t.lat.Merge(h)
		}
		t.ops += float64(a.TotalOps - b.TotalOps)
		t.batches += float64(a.Batches - b.Batches)
		t.windows += float64(a.Audit.WindowsChecked - b.Audit.WindowsChecked)
		t.gaps += float64(a.Audit.Gaps - b.Audit.Gaps)
		t.dropped += float64(a.Audit.DroppedOps - b.Audit.DroppedOps)
	}
	return t
}

// writeTraceFile writes a traced run's spans under .bench_build/traces.
func writeTraceFile(tr *tracer, workload string, seed uint64) {
	path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", workload, seed)
	if err := tr.writeTrace(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return
	}
	fmt.Printf("  trace written to %s\n", path)
}
