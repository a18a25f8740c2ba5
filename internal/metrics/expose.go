package metrics

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, each with one # HELP and one
// # TYPE line followed by its series sorted by label signature; histogram
// series expand into cumulative _bucket{le="..."} lines plus _sum and
// _count. The scrape is the cold path and may allocate freely.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		writeFamily(&b, f)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func writeFamily(b *strings.Builder, f *family) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	writeEscaped(b, f.help, false)
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')

	if f.expand != nil {
		// Dynamic family: collect, then sort for a stable exposition.
		type dyn struct {
			sig string
			v   float64
		}
		var rows []dyn
		f.expand(func(labels Labels, v float64) {
			rows = append(rows, dyn{sig: signature(canonical(labels)), v: v})
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].sig < rows[j].sig })
		for _, row := range rows {
			b.WriteString(f.name)
			b.WriteString(row.sig)
			b.WriteByte(' ')
			b.WriteString(formatValue(row.v))
			b.WriteByte('\n')
		}
		return
	}

	ser := append([]*series(nil), f.series...)
	sort.Slice(ser, func(i, j int) bool { return ser[i].sig < ser[j].sig })
	for _, s := range ser {
		switch {
		case s.hist != nil:
			writeHistogram(b, f.name, s)
		case s.fn != nil:
			b.WriteString(f.name)
			b.WriteString(s.sig)
			b.WriteByte(' ')
			b.WriteString(formatValue(s.fn()))
			b.WriteByte('\n')
		case s.counter != nil:
			b.WriteString(f.name)
			b.WriteString(s.sig)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.counter.Value(), 10))
			b.WriteByte('\n')
		case s.gauge != nil:
			b.WriteString(f.name)
			b.WriteString(s.sig)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(s.gauge.Value(), 10))
			b.WriteByte('\n')
		}
	}
}

// writeHistogram expands one histogram series into its cumulative bucket
// lines plus _sum and _count. The snapshot is taken once, so one series'
// buckets, sum and count are mutually consistent within a scrape.
func writeHistogram(b *strings.Builder, name string, s *series) {
	snap := s.hist.Snapshot()
	var cum int64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		writeBucket(b, name, s.labels, strconv.FormatInt(bound, 10), cum)
	}
	cum += snap.Counts[len(snap.Counts)-1]
	writeBucket(b, name, s.labels, "+Inf", cum)
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(s.sig)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(snap.Sum, 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(s.sig)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(snap.Count, 10))
	b.WriteByte('\n')
}

func writeBucket(b *strings.Builder, name string, labels Labels, le string, cum int64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteString(`="`)
		writeEscaped(b, l.Value, true)
		b.WriteString(`",`)
	}
	b.WriteString(`le="`)
	b.WriteString(le)
	b.WriteString(`"} `)
	b.WriteString(strconv.FormatInt(cum, 10))
	b.WriteByte('\n')
}

// signature renders a sorted label set as its exposition form
// ({a="x",b="y"}), or "" for the empty set. It doubles as the uniqueness
// key for duplicate-series detection.
func signature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		writeEscaped(&b, l.Value, true)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// writeEscaped writes s with exposition-format escaping: backslash and
// newline always, double-quote additionally inside label values.
func writeEscaped(b *strings.Builder, s string, quoted bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '"':
			if quoted {
				b.WriteString(`\"`)
			} else {
				b.WriteByte(c)
			}
		default:
			b.WriteByte(c)
		}
	}
}

// formatValue renders a float64 scrape value: integral values print as
// integers (counters backed by int64 sources stay exact), the rest in Go's
// shortest-roundtrip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
