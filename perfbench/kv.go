package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/wire"
)

// servedConfig is the store configuration cmd/served builds from its flag
// defaults: 4 shards, 2 workers per shard, queue 1024, MaxBatch 64, the
// auditor on over the whole keyspace, supervision on with 8 restarts.
func servedConfig() service.Config {
	return service.Config{
		Shards:          4,
		WorkersPerShard: 2,
		QueueDepth:      1024,
		MaxBatch:        64,
		Audit:           service.AuditConfig{WindowOps: 16, SampleFraction: 1.0},
		Supervise:       service.SuperviseConfig{Enabled: true, MaxRestarts: 8},
	}
}

// opMix describes a workload's generated ops.
type opMix struct {
	getPct, putPct int // the rest are cas
	keys           int
	zipf           float64 // Zipf exponent s; 0 draws keys uniformly
}

// makeOps generates n ops from seed. Values come from a small set per key,
// so a cas (expecting one of them) sometimes swaps and sometimes fails.
// IDs are left zero; the client stamps a unique one on every send.
func makeOps(seed uint64, n int, m opMix) []service.Op {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var zipf *rand.Zipf
	if m.zipf > 0 {
		zipf = rand.NewZipf(rng, m.zipf, 1, uint64(m.keys-1))
	}
	keys := make([]string, m.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%06d", i)
	}
	var vals [8]string
	for i := range vals {
		vals[i] = "v" + strconv.Itoa(i)
	}
	ops := make([]service.Op, n)
	for i := range ops {
		var k int
		if zipf != nil {
			k = int(zipf.Uint64())
		} else {
			k = rng.IntN(m.keys)
		}
		switch p := rng.IntN(100); {
		case p < m.getPct:
			ops[i] = service.Op{Kind: service.OpGet, Key: keys[k]}
		case p < m.getPct+m.putPct:
			ops[i] = service.Op{Kind: service.OpPut, Key: keys[k], Val: vals[rng.IntN(8)]}
		default:
			ops[i] = service.Op{Kind: service.OpCAS, Key: keys[k], Old: vals[rng.IntN(8)], Val: vals[rng.IntN(8)]}
		}
	}
	return ops
}

// timedBackend wraps the backend a wire.Server serves and records one span
// per call, under the Op.ID of the call's first op — the ID the client
// stamped, which links the span to the client frame that carried it.
type timedBackend struct {
	inner wire.Backend
	tr    *tracer
	name  string
}

func (b *timedBackend) Do(ctx context.Context, op service.Op) (service.Result, error) {
	t0 := nowNs()
	r, err := b.inner.Do(ctx, op)
	b.tr.record(b.name, op.ID, t0, nowNs())
	return r, err
}

func (b *timedBackend) DoBatch(ctx context.Context, ops []service.Op) ([]service.Result, error) {
	var id uint64
	if len(ops) > 0 {
		id = ops[0].ID
	}
	t0 := nowNs()
	rs, err := b.inner.DoBatch(ctx, ops)
	b.tr.record(b.name, id, t0, nowNs())
	return rs, err
}

func (b *timedBackend) Stats() service.Stats { return b.inner.Stats() }

// deployment is one built system: a single store, or three cluster nodes
// that each serve the wire protocol (as three `served -wire` processes
// would), plus the client's connections to the front end.
type deployment struct {
	store    *service.Store     // kv-single
	nodes    []*cluster.Node    // kv-cluster, kv-failover
	replicas [][]*service.Store // per node, its per-shard replica stores
	down     []atomic.Bool      // nodes the benchmark closed mid-run
	front    int                // node the client talks to
	srvs     []*wire.Server     // one per node (one in all for kv-single)
	addrs    []string           // their listen addresses
	served   chan error
	conns    []*wire.Conn
}

const numShards = 4

// setupSingle builds kv-single: a served-default store behind a wire
// server on loopback, as cmd/served -wire does.
func setupSingle(tr *tracer) (*deployment, error) {
	d := &deployment{store: service.New(servedConfig())}
	if err := d.serve(timed(d.store, tr, "service.backend")); err != nil {
		d.close()
		return nil, err
	}
	return d, d.connect(0)
}

// setupCluster builds three all-role nodes exactly as cmd/served's
// startCluster does for `-peers a,b,c -node i`, started back to back with
// no barrier. The client talks to node front; front < 0 picks, at the end
// of setup, a node that does not own shard 0.
func setupCluster(tr *tracer, front int) (*deployment, error) {
	addrs, err := reservePorts(3)
	if err != nil {
		return nil, err
	}
	cfg := servedConfig()
	d := &deployment{down: make([]atomic.Bool, len(addrs))}
	for i := range addrs {
		var stores []*service.Store
		for s := 0; s < cfg.Shards; s++ {
			shardCfg := cfg
			shardCfg.Shards = 1
			stores = append(stores, service.New(shardCfg))
		}
		ft, err := cluster.NewFreeTransport(cluster.NodeID(i), addrs, cluster.FreeConfig{})
		if err != nil {
			for _, st := range stores {
				st.Close()
			}
			d.close()
			return nil, err
		}
		n := cluster.New(cluster.Config{
			ID: cluster.NodeID(i), Nodes: len(addrs), StoreNodes: []cluster.NodeID{0, 1, 2},
			Shards: cfg.Shards, Frontend: true, Store: true,
		}, ft, stores)
		go n.Run(nil)
		d.nodes = append(d.nodes, n)
		d.replicas = append(d.replicas, stores)
	}
	for _, n := range d.nodes {
		if err := d.serve(timed(n, tr, "cluster.backend")); err != nil {
			d.close()
			return nil, err
		}
	}
	if front >= 0 {
		return d, d.connect(front)
	}
	// Ownership can move while setup runs (the startup race), so the front
	// end is settled only once the shards answer through it.
	for range d.nodes {
		front = 0
		for i, n := range d.nodes {
			if !n.Status().Shards[0].IsOwner {
				front = i
				break
			}
		}
		if err := d.connect(front); err != nil || !d.nodes[front].Status().Shards[0].IsOwner {
			return d, err
		}
	}
	return d, nil
}

// timed wraps be in a span-recording timedBackend when tracing.
func timed(be wire.Backend, tr *tracer, name string) wire.Backend {
	if tr == nil {
		return be
	}
	return &timedBackend{inner: be, tr: tr, name: name}
}

// reservePorts picks free loopback ports by binding and releasing them.
func reservePorts(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, l.Addr().String())
		l.Close()
	}
	return addrs, nil
}

// serve starts one more wire server, over be, on a loopback port.
func (d *deployment) serve(be wire.Backend) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if d.served == nil {
		d.served = make(chan error, 3)
	}
	srv := wire.NewServer(be, wire.ServerConfig{})
	d.srvs = append(d.srvs, srv)
	d.addrs = append(d.addrs, lis.Addr().String())
	go func() { d.served <- srv.Serve(lis) }()
	return nil
}

// connect points the client's two connections at server i and waits until
// one op on every shard is answered through them. On error the deployment
// is torn down.
func (d *deployment) connect(i int) error {
	for _, c := range d.conns {
		c.Close()
	}
	d.conns, d.front = nil, i
	for len(d.conns) < 2 {
		c, err := wire.Dial(d.addrs[i])
		if err != nil {
			d.close()
			return err
		}
		d.conns = append(d.conns, c)
	}
	if err := d.touchShards(30 * time.Second); err != nil {
		d.close()
		return err
	}
	return nil
}

// touchShards gets one key of every shard through the first connection.
func (d *deployment) touchShards(limit time.Duration) error {
	done := make(chan error, 1)
	go func() {
		for s := 0; s < numShards; s++ {
			key := ""
			for k := 0; ; k++ {
				key = "setup" + strconv.Itoa(k)
				if service.ShardIndex(key, numShards) == s {
					break
				}
			}
			if _, err := d.conns[0].Do(service.Op{Kind: service.OpGet, Key: key}); err != nil {
				done <- fmt.Errorf("setup op on shard %d: %w", s, err)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		for _, c := range d.conns {
			c.Close()
		}
		<-done
		return fmt.Errorf("setup: shards not all answering after %v", limit)
	}
}

// crash closes node i, as a process crash of a served node would stop it.
func (d *deployment) crash(i int) {
	d.down[i].Store(true)
	d.nodes[i].Close()
}

// drainLimit bounds how long teardown waits for the wire servers to drain
// before closing the backends under them.
const drainLimit = 2 * time.Second

// close tears the deployment down: client, wire servers, then backends.
// A wire server's shutdown waits for its in-flight backend calls, which a
// wedged cluster never answers; if the servers have not drained after
// drainLimit, the backends are closed first, which fails those calls. It
// reports whether that was needed.
func (d *deployment) close() (stuck bool) {
	for _, c := range d.conns {
		c.Close()
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for _, srv := range d.srvs {
			ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
			_ = srv.Shutdown(ctx) // a server that cannot drain is reported as stuck below
			cancel()
		}
	}()
	select {
	case <-drained:
	case <-time.After(drainLimit + time.Second):
		stuck = true
	}
	if d.store != nil {
		d.store.Close()
	}
	for i, n := range d.nodes {
		if !d.down[i].Load() {
			n.Close()
		}
	}
	<-drained
	for range d.srvs {
		<-d.served
	}
	return stuck
}

// allStores lists every store of the deployment: the single store, or
// every replica store of every node.
func (d *deployment) allStores() []*service.Store {
	if d.store != nil {
		return []*service.Store{d.store}
	}
	var out []*service.Store
	for _, rs := range d.replicas {
		out = append(out, rs...)
	}
	return out
}

// shard0Owner reads, from every live node's Status, which node owns shard
// 0 at the highest epoch any live node knows of.
func (d *deployment) shard0Owner() int {
	owner, epoch := -1, uint64(0)
	for i, n := range d.nodes {
		if d.down[i].Load() {
			continue
		}
		sh := n.Status().Shards[0]
		if sh.IsOwner && !sh.Condemned && (owner < 0 || sh.Epoch > epoch) {
			owner, epoch = i, sh.Epoch
		}
	}
	if owner < 0 { // mid-election: fall back to the front end's belief
		owner = int(d.nodes[d.front].Status().Shards[0].Owner)
	}
	return owner
}

// replicasAgree waits up to limit for the live, non-condemned replicas of
// every shard to report the same Committed in Status, and describes the
// first disagreement if they never do.
func (d *deployment) replicasAgree(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		msg := ""
		for s := 0; s < numShards && msg == ""; s++ {
			var seen []string
			first, agree := uint64(0), true
			for i, n := range d.nodes {
				if d.down[i].Load() {
					continue
				}
				sh := n.Status().Shards[s]
				if sh.Condemned {
					continue
				}
				if len(seen) == 0 {
					first = sh.Committed
				} else if sh.Committed != first {
					agree = false
				}
				seen = append(seen, fmt.Sprintf("node%d=%d", i, sh.Committed))
			}
			if !agree {
				msg = fmt.Sprintf("shard %d committed %s", s, strings.Join(seen, " "))
			}
		}
		if msg == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// promCounters sums every node's cluster registry by series, parsed from
// its Prometheus exposition.
func (d *deployment) promCounters() map[string]float64 {
	out := map[string]float64{}
	var buf bytes.Buffer
	for _, n := range d.nodes {
		buf.Reset()
		if err := n.Metrics().WriteProm(&buf); err != nil {
			continue
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
	}
	return out
}

// clusterTotals sums the Status counters over every node.
func (d *deployment) clusterTotals() (st cluster.Status) {
	for _, n := range d.nodes {
		s := n.Status()
		st.Failovers += s.Failovers
		st.Elections += s.Elections
		st.Condemned += s.Condemned
		st.Redirects += s.Redirects
		st.RouteRetries += s.RouteRetries
	}
	return st
}

// entriesCommitted sums, over shards, the highest Committed any live node
// reports: the number of log entries the cluster has committed.
func (d *deployment) entriesCommitted() uint64 {
	var total uint64
	for s := 0; s < numShards; s++ {
		var hi uint64
		for i, n := range d.nodes {
			if !d.down[i].Load() {
				hi = max(hi, n.Status().Shards[s].Committed)
			}
		}
		total += hi
	}
	return total
}

// followerLag is the largest owner-committed minus follower-frontier gap
// over every shard and live follower.
func (d *deployment) followerLag() uint64 {
	var lag uint64
	sts := make([]cluster.Status, len(d.nodes))
	for i, n := range d.nodes {
		if !d.down[i].Load() {
			sts[i] = n.Status()
		}
	}
	for s := 0; s < numShards; s++ {
		owner := -1
		for i := range sts {
			if !d.down[i].Load() && sts[i].Shards[s].IsOwner && !sts[i].Shards[s].Condemned {
				owner = i
			}
		}
		if owner < 0 {
			continue
		}
		committed := sts[owner].Shards[s].Committed
		for i := range sts {
			if i != owner && !d.down[i].Load() && !sts[i].Shards[s].Condemned && committed > sts[i].Shards[s].Frontier {
				lag = max(lag, committed-sts[i].Shards[s].Frontier)
			}
		}
	}
	return lag
}

// loadStats is what a load generator observed.
type loadStats struct {
	attempted, completed int64
	errored, unanswered  int64
	badPuts              int64 // answered puts whose result was not OK
	samples              []sample
	firstErr             string
}

func (a *loadStats) merge(b *loadStats) {
	a.attempted += b.attempted
	a.completed += b.completed
	a.errored += b.errored
	a.unanswered += b.unanswered
	a.badPuts += b.badPuts
	a.samples = append(a.samples, b.samples...)
	if a.firstErr == "" {
		a.firstErr = b.firstErr
	}
}

func (a *loadStats) failed() int64 { return a.errored + a.unanswered }

// closedLoop keeps depth batch frames of frameOps ops outstanding on every
// connection from start (ns on the nowNs clock) for dur: each in-flight
// slot is a goroutine that sends its next frame only once the previous one
// is answered. Every frame is one latency sample. Frames still unanswered
// grace after the end are given up on (the connections are closed) and
// counted unanswered. Op IDs are stamped from idBase up.
func closedLoop(conns []*wire.Conn, ops []service.Op, idBase uint64, start int64, dur time.Duration, depth, frameOps int, tr *tracer, grace time.Duration) loadStats {
	deadline := start + int64(dur)
	workers := len(conns) * depth
	per := make([]loadStats, workers)
	var gaveUp atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &per[w]
			st.samples = make([]sample, 0, 1<<14)
			conn := conns[w%len(conns)]
			pos := w * len(ops) / workers
			frame := make([]service.Op, frameOps)
			results := make([]service.Result, 0, frameOps)
			seq := idBase | uint64(w+1)<<40
			sleepUntil(start)
			for nowNs() < deadline {
				for i := range frame {
					seq++
					frame[i] = ops[pos]
					frame[i].ID = seq
					if pos++; pos == len(ops) {
						pos = 0
					}
				}
				t0 := nowNs()
				var err error
				results, err = conn.DoBatch(frame, results[:0])
				t1 := nowNs()
				tr.record("client.frame", frame[0].ID, t0, t1)
				st.attempted += int64(frameOps)
				if err != nil {
					st.samples = append(st.samples, sample{at: t1, ms: ms(t1 - t0)})
					if gaveUp.Load() {
						st.unanswered += int64(frameOps)
					} else {
						st.errored += int64(frameOps)
						st.firstErr = err.Error()
					}
					return
				}
				st.completed += int64(frameOps)
				st.samples = append(st.samples, sample{at: t1, ms: ms(t1 - t0), ops: frameOps})
				for i := range frame {
					if frame[i].Kind == service.OpPut && !results[i].OK {
						st.badPuts++
					}
				}
			}
		}(w)
	}
	waitOrGiveUp(&wg, time.Duration(deadline-nowNs())+grace, &gaveUp, conns)
	var out loadStats
	for i := range per {
		out.merge(&per[i])
	}
	return out
}

// waitOrGiveUp waits for wg; if it has not finished within limit, it marks
// the run given up and closes the connections, which fails every call still
// waiting on them, then waits again.
func waitOrGiveUp(wg *sync.WaitGroup, limit time.Duration, gaveUp *atomic.Bool, conns []*wire.Conn) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-time.After(limit):
	}
	gaveUp.Store(true)
	for _, c := range conns {
		c.Close()
	}
	<-done
}

// openResult is what the open-loop generator observed, per op.
type openResult struct {
	loadStats
	due, done []int64 // ns on the nowNs clock; done is 0 for a failed op
	genLag    []float64
	start     int64
}

// openLoop offers single-op frames at rate ops/s from start (ns on the
// nowNs clock) for dur, spread round-robin over the connections (one
// generator per connection). Every op is sent on its own goroutine at its
// due time, whatever the state of earlier ops, and its latency is measured
// from the due time, so a stall is charged to every op due behind it. Op
// IDs are stamped from idBase up. atMid, when non-nil, runs at the
// schedule's midpoint, concurrently with the load.
func openLoop(conns []*wire.Conn, ops []service.Op, idBase uint64, rate float64, start int64, dur time.Duration, tr *tracer, grace time.Duration, atMid func()) openResult {
	n := int(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	r := openResult{due: make([]int64, n), done: make([]int64, n), genLag: make([]float64, n), start: start}
	end := make([]int64, n)   // when the op was answered or failed
	status := make([]byte, n) // 0 answered, 1 errored, 2 unanswered, 3 put answered not OK
	var gaveUp atomic.Bool
	var inflight, gens sync.WaitGroup
	for i := range r.due {
		r.due[i] = r.start + int64(float64(i)*interval)
	}
	var mid sync.WaitGroup
	if atMid != nil {
		mid.Add(1)
		go func() {
			defer mid.Done()
			sleepUntil(r.start + int64(dur/2))
			atMid()
		}()
	}
	for c := range conns {
		gens.Add(1)
		go func(c int) {
			defer gens.Done()
			conn := conns[c]
			for i := c; i < n; i += len(conns) {
				sleepUntil(r.due[i])
				r.genLag[i] = ms(nowNs() - r.due[i])
				inflight.Add(1)
				go func(i int) {
					defer inflight.Done()
					op := ops[i%len(ops)]
					op.ID = idBase | uint64(i+1)
					t0 := nowNs()
					res, err := conn.Do(op)
					end[i] = nowNs()
					tr.record("client.op", op.ID, t0, end[i])
					switch {
					case err != nil && gaveUp.Load():
						status[i] = 2
					case err != nil:
						status[i] = 1
					case op.Kind == service.OpPut && !res.OK:
						status[i] = 3
					}
				}(i)
			}
		}(c)
	}
	gens.Wait()
	waitOrGiveUp(&inflight, grace, &gaveUp, conns)
	mid.Wait()
	r.attempted = int64(n)
	r.samples = make([]sample, n)
	for i, s := range status {
		r.samples[i] = sample{at: end[i], ms: ms(end[i] - r.due[i])}
		switch s {
		case 0, 3:
			r.completed++
			r.done[i] = end[i]
			r.samples[i].ops = 1
			if s == 3 {
				r.badPuts++
			}
		case 1:
			r.errored++
			if r.firstErr == "" {
				r.firstErr = fmt.Sprintf("op %d failed", i)
			}
		case 2:
			r.unanswered++
		}
	}
	return r
}

func sleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
