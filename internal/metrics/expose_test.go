package metrics

import (
	"strings"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	return sb.String()
}

func TestExpositionHelpTypeAndOrdering(t *testing.T) {
	r := NewRegistry()
	// Register out of order; exposition must sort families by name and
	// series by label signature.
	r.Counter("zeta_total", "last family", nil).Add(7)
	r.Gauge("alpha", "first family", Labels{{"shard", "1"}}).Set(5)
	r.Gauge("alpha", "first family", Labels{{"shard", "0"}}).Set(3)
	got := scrape(t, r)
	want := "# HELP alpha first family\n" +
		"# TYPE alpha gauge\n" +
		`alpha{shard="0"} 3` + "\n" +
		`alpha{shard="1"} 5` + "\n" +
		"# HELP zeta_total last family\n" +
		"# TYPE zeta_total counter\n" +
		"zeta_total 7\n"
	if got != want {
		t.Fatalf("exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "help with \\ backslash\nand newline", Labels{
		{"path", `a\b`},
		{"quote", `say "hi"` + "\nbye"},
	}).Inc()
	got := scrape(t, r)
	if !strings.Contains(got, `# HELP esc_total help with \\ backslash\nand newline`) {
		t.Fatalf("HELP escaping wrong:\n%s", got)
	}
	if !strings.Contains(got, `esc_total{path="a\\b",quote="say \"hi\"\nbye"} 1`) {
		t.Fatalf("label value escaping wrong:\n%s", got)
	}
}

func TestExpositionLabelCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	// Labels given unsorted must expose sorted by name.
	r.Counter("lbl_total", "l", Labels{{"zz", "1"}, {"aa", "2"}}).Inc()
	got := scrape(t, r)
	if !strings.Contains(got, `lbl_total{aa="2",zz="1"} 1`) {
		t.Fatalf("labels not canonically ordered:\n%s", got)
	}
}

func TestExpositionHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", Labels{{"kind", "put"}}, []int64{1, 2, 4})
	for _, v := range []int64{1, 1, 3, 9} {
		h.Observe(v)
	}
	got := scrape(t, r)
	want := "# HELP lat latency\n" +
		"# TYPE lat histogram\n" +
		`lat_bucket{kind="put",le="1"} 2` + "\n" +
		`lat_bucket{kind="put",le="2"} 2` + "\n" +
		`lat_bucket{kind="put",le="4"} 3` + "\n" +
		`lat_bucket{kind="put",le="+Inf"} 4` + "\n" +
		`lat_sum{kind="put"} 14` + "\n" +
		`lat_count{kind="put"} 4` + "\n"
	if got != want {
		t.Fatalf("histogram exposition mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestExpositionHistogramNoLabels(t *testing.T) {
	r := NewRegistry()
	r.Histogram("occ", "occupancy", nil, []int64{8}).Observe(3)
	got := scrape(t, r)
	if !strings.Contains(got, `occ_bucket{le="8"} 1`) ||
		!strings.Contains(got, `occ_bucket{le="+Inf"} 1`) ||
		!strings.Contains(got, "occ_sum 3\n") ||
		!strings.Contains(got, "occ_count 1\n") {
		t.Fatalf("unlabelled histogram exposition wrong:\n%s", got)
	}
}

func TestExpositionFuncsAndDynamic(t *testing.T) {
	r := NewRegistry()
	depth := int64(17)
	r.GaugeFunc("queue_depth", "depth", Labels{{"shard", "0"}}, func() float64 {
		return float64(depth)
	})
	r.CounterFunc("seen_total", "seen", nil, func() float64 { return 9 })
	r.ExpandFunc("fault_fires_total", "counter", "fires per point", func(emit func(Labels, float64)) {
		// Emitted unsorted; exposition must sort the rows.
		emit(Labels{{"point", "zz"}}, 2)
		emit(Labels{{"point", "aa"}}, 1)
	})
	got := scrape(t, r)
	wantOrder := []string{
		`fault_fires_total{point="aa"} 1`,
		`fault_fires_total{point="zz"} 2`,
		`queue_depth{shard="0"} 17`,
		"seen_total 9",
	}
	last := -1
	for _, w := range wantOrder {
		idx := strings.Index(got, w)
		if idx < 0 {
			t.Fatalf("missing %q in:\n%s", w, got)
		}
		if idx < last {
			t.Fatalf("out of order: %q before position %d in:\n%s", w, last, got)
		}
		last = idx
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-3, "-3"},
		{0.5, "0.5"},
		{1e6, "1000000"},
	}
	for _, c := range cases {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}
