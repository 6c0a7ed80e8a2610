package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// table declares a small metric set covering every rendering rule: a
// multi-sample family split across JSON sections, an array whose
// counter is also rendered under a second family, a First-read
// numerator with a ratio derived from it, a JSON-only value, a
// Prometheus-only value, an omitted (nil) value and a histogram.
func table(hits, misses, skipped, total *Counter, lat *Histogram) []Metric {
	return []Metric{
		{Key: "a.hits", Name: "ev_total", Help: "Events.", Type: "counter", Labels: []Label{{"event", "hit"}}, Source: hits},
		{Key: "a.enabled", Name: "a_enabled", Help: "On.", Type: "gauge", Source: Func(func(*Snapshot) any { return true })},
		{Key: "b.misses", Name: "ev_total", Labels: []Label{{"event", "miss"}}, Source: misses},
		{Key: "b.total", Source: total},
		{Key: "b.parts[]", Name: "part_total", Help: "Parts.", Type: "counter", First: true, Source: skipped},
		{Name: "piece_total", Help: "Pieces.", Type: "counter", Source: Func(func(sn *Snapshot) any { return sn.Count(skipped) })},
		{Key: "b.parts[]", Source: Func(func(*Snapshot) any { return int64(7) })},
		{Key: "b.share", Name: "share", Help: "Share.", Type: "gauge", Source: Func(func(sn *Snapshot) any {
			return float64(sn.Count(skipped)) / float64(sn.Count(total))
		})},
		{Key: "b.gone", Source: Func(func(*Snapshot) any { return nil })},
		{Name: "info", Help: "Info.", Type: "gauge", Labels: []Label{{"v", "x"}}, Source: Func(func(*Snapshot) any { return 1 })},
		{Key: "lat", Name: "lat_seconds", Help: "Latency.", Type: "histogram", Source: lat},
	}
}

func TestSnapshotRendersBothExpositions(t *testing.T) {
	var hits, misses, skipped, total Counter
	var lat Histogram
	hits.Add(3)
	misses.Add(1)
	skipped.Add(2)
	total.Add(8)
	lat.Observe(time.Millisecond)
	sn := Read(table(&hits, &misses, &skipped, &total, &lat))

	got, err := json.Marshal(sn.Object(""))
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `{"a":{"hits":3,"enabled":true},"b":{"misses":1,"total":8,"parts":[2,7],"share":0.25},` +
		`"lat":{"count":1,"sum_ns":1000000,"max_ns":1000000,"mean_ns":1000000,"p50_ns":1000000,"p90_ns":1000000,"p99_ns":1000000}}`
	if string(got) != wantJSON {
		t.Errorf("JSON:\n%s\nwant:\n%s", got, wantJSON)
	}
	if got, _ := json.Marshal(sn.Object("a")); string(got) != `{"hits":3,"enabled":true}` {
		t.Errorf("section a: %s", got)
	}

	var buf bytes.Buffer
	if err := sn.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	const wantProm = "# HELP ev_total Events.\n# TYPE ev_total counter\n" +
		"ev_total{event=\"hit\"} 3\nev_total{event=\"miss\"} 1\n" +
		"# HELP a_enabled On.\n# TYPE a_enabled gauge\na_enabled 1\n" +
		"# HELP part_total Parts.\n# TYPE part_total counter\npart_total 2\n" +
		"# HELP piece_total Pieces.\n# TYPE piece_total counter\npiece_total 2\n" +
		"# HELP share Share.\n# TYPE share gauge\nshare 0.25\n" +
		"# HELP info Info.\n# TYPE info gauge\ninfo{v=\"x\"} 1\n" +
		"# HELP lat_seconds Latency.\n# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{le=\"0.001048576\"} 1\nlat_seconds_bucket{le=\"+Inf\"} 1\n" +
		"lat_seconds_sum 0.001\nlat_seconds_count 1\n"
	if buf.String() != wantProm {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), wantProm)
	}
}

// TestReadOrder pins the load order: First metrics before all others,
// each group in declaration order.
func TestReadOrder(t *testing.T) {
	var order []string
	src := func(name string) Source {
		return Func(func(*Snapshot) any { order = append(order, name); return int64(0) })
	}
	Read([]Metric{
		{Key: "a", Source: src("a")},
		{Key: "b", First: true, Source: src("b")},
		{Key: "c", Source: src("c")},
		{Key: "d", First: true, Source: src("d")},
	})
	if got := strings.Join(order, ""); got != "bdac" {
		t.Errorf("read order %q, want bdac", got)
	}
}

// TestCountBeforeReadPanics: a ratio whose input is read after it is a
// declaration bug, and Count says so instead of returning a stale zero.
func TestCountBeforeReadPanics(t *testing.T) {
	var c Counter
	defer func() {
		if recover() == nil {
			t.Fatal("Count of a counter not yet read did not panic")
		}
	}()
	Read([]Metric{
		{Key: "ratio", Source: Func(func(sn *Snapshot) any { return sn.Count(&c) })},
		{Key: "c", Source: &c},
	})
}
