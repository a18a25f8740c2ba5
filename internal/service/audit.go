package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/spec"
)

// AuditConfig tunes the online linearizability auditor.
type AuditConfig struct {
	// Disabled turns auditing off entirely.
	Disabled bool
	// SampleFraction is the fraction of the keyspace audited, selected by
	// key hash so a key is either always audited or never (windows must see
	// every op on their key). Default 1 (audit everything).
	SampleFraction float64
	// WindowOps is the number of ops per checked window. It is capped at
	// spec.MaxWindowOps. Default 16.
	WindowOps int
	// QueueDepth bounds the record queue between the serving path and the
	// auditor goroutine. When it overflows, records are dropped — never
	// blocking the serving path — and the affected windows are discarded
	// (counted in AuditStats.Gaps), not mis-checked. Default 8192.
	QueueDepth int
	// MaxTrackedKeys bounds the auditor's per-key window table. Records for
	// keys beyond the bound are dropped. Default 65536.
	MaxTrackedKeys int
	// MaxViolationSamples caps the retained violation descriptions. Default 8.
	MaxViolationSamples int
}

func (c AuditConfig) withDefaults() AuditConfig {
	if c.SampleFraction <= 0 || c.SampleFraction > 1 {
		c.SampleFraction = 1
	}
	if c.WindowOps <= 0 {
		c.WindowOps = 16
	}
	if c.WindowOps > spec.MaxWindowOps {
		c.WindowOps = spec.MaxWindowOps
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8192
	}
	if c.MaxTrackedKeys <= 0 {
		c.MaxTrackedKeys = 1 << 16
	}
	if c.MaxViolationSamples <= 0 {
		c.MaxViolationSamples = 8
	}
	return c
}

// AuditStats is the auditor's progress report.
type AuditStats struct {
	// SampledOps counts records accepted onto the audit queue.
	SampledOps int64 `json:"sampled_ops"`
	// DroppedOps counts records lost to a full queue or table bound; each
	// drop also discards its key's in-progress window (see Gaps).
	DroppedOps int64 `json:"dropped_ops"`
	// WindowsChecked counts completed linearizability checks.
	WindowsChecked int64 `json:"windows_checked"`
	// Violations counts windows with no valid linearization.
	Violations int64 `json:"violations"`
	// Truncated counts windows skipped by the spec package's size bound.
	Truncated int64 `json:"truncated"`
	// Gaps counts windows discarded because a sampling gap broke version
	// contiguity (a discarded window is "not audited", never "passed").
	Gaps int64 `json:"gaps"`
	// ViolationSamples holds up to MaxViolationSamples descriptions.
	ViolationSamples []string `json:"violation_samples,omitempty"`
}

// auditRecord is one completed op on its way to the auditor.
type auditRecord struct {
	key string
	ver uint64
	op  spec.Op
}

// window accumulates one key's contiguous run of operations.
type window struct {
	// next is the version the run needs to stay contiguous (0 = adopt the
	// next record's version as the start).
	next uint64
	ops  []spec.Op
	// pending holds out-of-order records (a worker that committed version v
	// can be preempted before recording it while another worker records
	// v+1). They are drained into ops as contiguity restores.
	pending map[uint64]spec.Op
}

// Auditor checks sampled per-key windows of the live history against the
// object's sequential specification, in the background. Soundness rests on
// the per-key versions assigned by the replicated state machine: a window
// is only ever checked when it is a gap-free slice of its key's history, so
// dropped records and out-of-order arrival can reduce coverage but can
// never produce a false verdict. Windows are checked with an unconstrained
// initial value (spec.CASRegisterModel.UnknownInit), which is exactly right
// for a slice cut from the middle of a history.
type Auditor struct {
	cfg AuditConfig
	// in is the record queue to the auditor proc; nil for an inline
	// auditor, which checks windows synchronously inside Observe.
	in mailbox
	// windows is the per-key window table, owned by whoever feeds records
	// (the auditor proc, or an inline auditor's single caller).
	windows map[string]*window
	// join blocks until the auditor proc has exited; the Store sets it when
	// it spawns the auditor on the runtime.
	join func(*sched.Proc)

	sampled atomic.Int64
	dropped atomic.Int64
	// sample holds math.Float64bits of the live sample fraction: SampleFraction
	// is read per committed op on the serving path, and config reload swaps it
	// without a lock.
	sample atomic.Uint64

	mu             sync.Mutex
	windowsChecked int64
	violations     int64
	truncated      int64
	gaps           int64
	samples        []string
}

// NewAuditor starts a standalone auditor, for callers that order and
// version ops themselves: cluster store nodes, whose Machines assign the
// per-key versions, feed it each op they answer. Soundness needs the
// contract the Store keeps — every observed op applied at its reported
// version, inside its reported [call, ret] interval, one clock domain per
// auditor. A background auditor checks windows on its own goroutine and
// Observe never blocks (a full queue drops records, which costs coverage,
// never soundness). An inline auditor checks them synchronously inside
// Observe, for callers that must not start goroutines (procs of a
// controlled sched.Run); its Observe must not be called concurrently.
func NewAuditor(cfg AuditConfig, inline bool) *Auditor {
	cfg = cfg.withDefaults()
	if inline {
		return newAuditor(cfg, nil)
	}
	rt := newFreeRuntime()
	a := newAuditor(cfg, rt)
	a.join = rt.spawn(a.run)
	return a
}

// Close checks every window still open and stops the auditor; no Observe
// may follow it.
func (a *Auditor) Close() { a.close(nil) }

// RegisterMetrics adds the auditor's counters to reg as the
// <prefix>_audit_* families (see docs/OPERATIONS.md).
func (a *Auditor) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.CounterFunc(prefix+"_audit_sampled_total",
		"Committed ops accepted onto the audit queue.", nil,
		func() float64 { return float64(a.sampled.Load()) })
	reg.CounterFunc(prefix+"_audit_dropped_total",
		"Audit records lost to queue or table bounds.", nil,
		func() float64 { return float64(a.dropped.Load()) })
	counter := func(name, help string, field *int64) {
		reg.CounterFunc(prefix+name, help, nil, func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(*field)
		})
	}
	counter("_audit_windows_total", "Completed linearizability window checks.", &a.windowsChecked)
	counter("_audit_violations_total", "Windows with no valid linearization.", &a.violations)
	counter("_audit_truncated_total", "Windows skipped by the checker's size bound.", &a.truncated)
	counter("_audit_gaps_total", "Windows discarded because sampling broke version contiguity.", &a.gaps)
}

// newAuditor builds an auditor on the runtime's mailbox (an inline one for
// a nil runtime). The caller spawns a.run on the runtime (the auditor is a
// managed proc like the workers, so a virtual run's policy can starve it).
func newAuditor(cfg AuditConfig, rt Runtime) *Auditor {
	a := &Auditor{cfg: cfg, windows: map[string]*window{}}
	if rt != nil {
		a.in = rt.newMailbox(cfg.QueueDepth)
	}
	a.setSampleFraction(cfg.SampleFraction)
	return a
}

// setSampleFraction swaps the live sample fraction (config reload).
func (a *Auditor) setSampleFraction(f float64) {
	a.sample.Store(math.Float64bits(f))
}

// sampled reports whether key is in the audited slice of the keyspace.
func (a *Auditor) sampledKey(key string) bool {
	f := math.Float64frombits(a.sample.Load())
	if f >= 1 {
		return true
	}
	return float64(keyHash(key)%1024) < f*1024
}

// Observe offers the auditor one committed op: op answered with res at
// per-key version ver, over the logical interval [call, ret], as seen by
// observer proc. It never blocks: when the queue is full the record is
// dropped, which the auditor will detect as a version gap and discard the
// affected window.
func (a *Auditor) Observe(proc int, op Op, res Result, ver uint64, call, ret int64) {
	if !a.sampledKey(op.Key) {
		return
	}
	rec := auditRecord{key: op.Key, ver: ver, op: spec.Op{
		Proc: proc,
		Call: call,
		Ret:  ret,
	}}
	switch op.Kind {
	case OpGet:
		rec.op.Method, rec.op.Out = "read", res.Val
	case OpPut:
		rec.op.Method, rec.op.In = "write", op.Val
	case OpCAS:
		rec.op.Method = "cas"
		rec.op.In = spec.CASInput{Old: op.Old, New: op.Val}
		rec.op.Out = res.OK
	}
	switch {
	case a.in == nil:
		a.sampled.Add(1)
		a.feed(rec)
	case a.in.offer(rec):
		a.sampled.Add(1)
	default:
		a.dropped.Add(1)
	}
}

// run is the auditor proc: it assembles version-contiguous per-key windows
// and checks each completed window. On the free runtime it is a goroutine
// draining a channel; on the virtual runtime it is a scheduled proc whose
// mailbox polls charge steps, so an adversarial policy can starve auditing
// (which costs coverage, never soundness).
func (a *Auditor) run(p *sched.Proc) {
	for {
		rec, ok := a.in.take(p)
		if !ok {
			break
		}
		a.feed(rec)
	}
	a.flush()
}

// feed threads one record into its key's window (tracking a new key only
// while the table has room).
func (a *Auditor) feed(rec auditRecord) {
	w := a.windows[rec.key]
	if w == nil {
		if len(a.windows) >= a.cfg.MaxTrackedKeys {
			a.dropped.Add(1)
			return
		}
		w = &window{pending: make(map[uint64]spec.Op)}
		a.windows[rec.key] = w
	}
	a.ingest(rec.key, w, rec)
}

// flush is the shutdown pass: every accumulated contiguous run is still a
// valid window; check them all.
func (a *Auditor) flush() {
	keys := make([]string, 0, len(a.windows))
	for key := range a.windows {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if w := a.windows[key]; len(w.ops) > 0 {
			a.check(key, w.ops)
		}
	}
}

// ingest threads one record into its key's window, maintaining version
// contiguity, and checks the window when it fills.
func (a *Auditor) ingest(key string, w *window, rec auditRecord) {
	switch {
	case w.next == 0:
		// Fresh window: adopt this record as the start of the run.
		w.ops = append(w.ops[:0], rec.op)
		w.next = rec.ver + 1
	case rec.ver == w.next:
		w.ops = append(w.ops, rec.op)
		w.next = rec.ver + 1
	case rec.ver > w.next:
		// Out of order (or a drop). Park it; if the hole doesn't fill
		// before the parking lot grows past a window's worth of records,
		// declare a gap and restart from the oldest parked record.
		w.pending[rec.ver] = rec.op
		if len(w.pending) > a.cfg.WindowOps {
			a.restart(key, w)
		}
		return
	default:
		// A version below the run: records for one version are unique, so
		// this means the window was restarted past it; ignore.
		return
	}
	a.advance(key, w)
}

// advance drains parked records that restore contiguity and checks the
// window every time it reaches WindowOps ops. After a completed window,
// w.next stands: the next window continues the contiguous run.
func (a *Auditor) advance(key string, w *window) {
	for {
		if len(w.ops) >= a.cfg.WindowOps {
			a.check(key, w.ops)
			w.ops = w.ops[:0]
		}
		op, ok := w.pending[w.next]
		if !ok {
			return
		}
		delete(w.pending, w.next)
		w.ops = append(w.ops, op)
		w.next++
	}
}

// restart abandons a window whose version run can no longer be completed
// (a record was dropped). The accumulated contiguous prefix is still a
// valid window — check it — then restart the run at the oldest parked
// record.
func (a *Auditor) restart(key string, w *window) {
	if len(w.ops) > 0 {
		a.check(key, w.ops)
		w.ops = w.ops[:0]
	}
	a.mu.Lock()
	a.gaps++
	a.mu.Unlock()
	var oldest uint64
	for ver := range w.pending {
		if oldest == 0 || ver < oldest {
			oldest = ver
		}
	}
	w.next = oldest
	a.advance(key, w)
}

// check runs the bounded linearizability check on one window and records
// the verdict.
func (a *Auditor) check(key string, ops []spec.Op) {
	res := spec.CheckBounded(spec.CASRegisterModel{UnknownInit: true}, ops, spec.MaxWindowOps)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.windowsChecked++
	switch res {
	case spec.Violation:
		a.violations++
		if len(a.samples) < a.cfg.MaxViolationSamples {
			a.samples = append(a.samples, fmt.Sprintf(
				"key %q: %d-op window has no valid linearization", key, len(ops)))
		}
	case spec.Truncated:
		a.truncated++
	}
}

// close flushes and stops the auditor, joining its proc on behalf of p
// (nil on the free runtime). Callers must guarantee no further observe
// calls (the Store closes it only after all workers exit).
func (a *Auditor) close(p *sched.Proc) {
	if a.in == nil {
		a.flush()
		return
	}
	a.in.close()
	a.join(p)
}

// Stats snapshots the auditor's counters.
func (a *Auditor) Stats() AuditStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AuditStats{
		SampledOps:       a.sampled.Load(),
		DroppedOps:       a.dropped.Load(),
		WindowsChecked:   a.windowsChecked,
		Violations:       a.violations,
		Truncated:        a.truncated,
		Gaps:             a.gaps,
		ViolationSamples: append([]string(nil), a.samples...),
	}
}
