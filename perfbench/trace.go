package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program under test is never instrumented). Spans of one request
// share id: a client frame's id is the client-assigned Op.ID of its first
// op, and the wire.Backend wrapper records the backend call under the ID it
// sees on that same op, which links the two without any program support.
type span struct {
	name       string // a constant, so recording never allocates
	id         uint64
	start, end int64 // ns on the nowNs clock
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in a buffer allocated once, before the measured
// window. A full buffer drops further spans and counts them. A nil tracer
// records nothing, which is the untraced mode every end-to-end metric comes
// from.
type tracer struct {
	buf     []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{buf: make([]span, capacity)}
}

func (t *tracer) record(name string, id uint64, start, end int64) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{name: name, id: id, start: start, end: end}
}

// spans returns the recorded spans. Call it only once recording has
// stopped.
func (t *tracer) spans() []span {
	n := t.n.Load()
	if n > int64(len(t.buf)) {
		n = int64(len(t.buf))
	}
	return t.buf[:n]
}

// linked is the result of pairing parent spans with their children.
type linked struct {
	// Parent, Child and Self hold one entry per linked parent, in ms: the
	// parent's duration, the part of it its children cover, and the
	// difference (the parent layer's self time).
	Parent, Child, Self []float64
	// Unlinked counts parents with no child span under their id.
	Unlinked int
}

// selfTimes links every span named parent to the spans named child that
// carry its id, and derives the parent's self time: its duration minus the
// part of its interval that the union of its children covers.
func selfTimes(spans []span, parent, child string) linked {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.name == child {
			kids[s.id] = append(kids[s.id], s)
		}
	}
	var out linked
	for _, p := range spans {
		if p.name != parent {
			continue
		}
		cs, ok := kids[p.id]
		if !ok {
			out.Unlinked++
			continue
		}
		covered := coverage(cs, p.start, p.end)
		out.Parent = append(out.Parent, ms(p.dur()))
		out.Child = append(out.Child, ms(covered))
		out.Self = append(out.Self, ms(p.dur()-covered))
	}
	return out
}

// coverage is the length of the union of the spans' intervals clipped to
// [lo, hi]. It reorders spans.
func coverage(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var total int64
	cur := lo // everything before cur is already counted
	for _, s := range spans {
		a, b := max(s.start, cur), min(s.end, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// durationsOf returns the durations, in ms, of the spans with one name.
func durationsOf(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// writeTrace writes the spans as a Chrome trace-event file (load it in
// chrome://tracing or ui.perfetto.dev), one track per span id, so a
// client frame and its backend call share a track.
func (t *tracer) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[")
	for i, s := range t.spans() {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
			s.name, s.id, float64(s.start)/1e3, float64(s.dur())/1e3)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
