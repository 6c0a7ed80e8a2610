package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"sync/atomic"
)

// Counter is a live int64 metric: a monotonic count, or with negative
// deltas a gauge such as an in-flight total. Add is its only exported
// operation: a Counter is read only by Read, through the Metric that
// declares it, so every exposition of it renders from one snapshot.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Metric declares one exported value once: where it comes from, where
// it sits in the JSON document, and which Prometheus sample it is. Read
// snapshots a declaration table; Object and WriteProm render it.
type Metric struct {
	// Key is the value's dot-separated path in the JSON document, such
	// as "engine.records"; a trailing "[]" appends the value to an array
	// under that key. "" leaves the value out of JSON.
	Key string
	// Name is the Prometheus family the value is a sample of; "" leaves
	// it out of the exposition. The family's first declaration carries
	// its HELP text and its TYPE ("counter", "gauge" or "histogram").
	Name, Help, Type string
	// Labels tell this sample apart from the others of its family.
	Labels []Label
	// First reads the value before every metric without it. A ratio's
	// numerator is declared First, so a total read later is at least as
	// fresh and the ratio undershoots rather than overshoots while
	// writers race the read.
	First bool
	// Source is a *Counter, a *Histogram, or a Func.
	Source Source
}

// Source yields a metric's value for one snapshot.
type Source interface {
	read(*Snapshot) any
}

// Func is a Source computed when the snapshot reaches it: a value read
// from another component's stats, or one derived from counters the
// snapshot has already read (see Count), such as a second family over
// the same counter. It returns an int, int64,
// float64, bool or string; nil leaves the key out of the JSON document,
// as omitempty would.
type Func func(*Snapshot) any

func (f Func) read(sn *Snapshot) any    { return f(sn) }
func (c *Counter) read(*Snapshot) any   { return c.v.Load() }
func (h *Histogram) read(*Snapshot) any { return h.Snapshot() }

// Snapshot is one read of every metric of a declaration table. Both
// expositions render from it, so they never disagree within a scrape.
type Snapshot struct {
	metrics []Metric
	vals    []any
}

// Read snapshots ms: the First metrics in declaration order, then the
// rest in declaration order.
func Read(ms []Metric) *Snapshot {
	sn := &Snapshot{metrics: ms, vals: make([]any, len(ms))}
	for _, first := range [...]bool{true, false} {
		for i, m := range ms {
			if m.First == first {
				sn.vals[i] = m.Source.read(sn)
			}
		}
	}
	return sn
}

// Count returns the value this snapshot read for c. It panics unless c
// is declared and was read before the caller: declared First, or
// earlier in the table.
func (sn *Snapshot) Count(c *Counter) int64 {
	for i, m := range sn.metrics {
		if src, ok := m.Source.(*Counter); ok && src == c {
			return sn.vals[i].(int64)
		}
	}
	panic("telemetry: counter is not declared")
}

// Object returns the JSON object of the values keyed under section —
// the whole document for "" — with keys in declaration order, for
// encoding/json. Histograms render as count, sum, max, mean and
// p50/p90/p99 in nanoseconds.
func (sn *Snapshot) Object(section string) json.Marshaler {
	root := &jsonObject{}
	for i, m := range sn.metrics {
		v := sn.vals[i]
		if m.Key == "" || v == nil {
			continue
		}
		if h, ok := v.(HistSnapshot); ok {
			v = latencyJSON{h.Count, h.SumNanos, h.MaxNanos, int64(h.Mean()),
				int64(h.Quantile(0.50)), int64(h.Quantile(0.90)), int64(h.Quantile(0.99))}
		}
		path := strings.Split(m.Key, ".")
		o := root
		for _, k := range path[:len(path)-1] {
			o = o.object(k)
		}
		key, isArray := strings.CutSuffix(path[len(path)-1], "[]")
		if isArray {
			arr, _ := o.vals[key].([]any)
			v = append(arr, v)
		}
		o.set(key, v)
	}
	if section == "" {
		return root
	}
	return root.object(section)
}

// WriteProm renders every value with a Name to w in the Prometheus
// text exposition format: families in the order of their first
// declaration, each family's samples under its one HELP/TYPE header in
// declaration order.
func (sn *Snapshot) WriteProm(w io.Writer) error {
	var families []string
	samples := map[string][]int{}
	for i, m := range sn.metrics {
		if m.Name == "" {
			continue
		}
		if samples[m.Name] == nil {
			families = append(families, m.Name)
		}
		samples[m.Name] = append(samples[m.Name], i)
	}
	p := NewPromWriter(w)
	for _, name := range families {
		head := sn.metrics[samples[name][0]]
		p.Header(name, head.Help, head.Type)
		for _, i := range samples[name] {
			labels := sn.metrics[i].Labels
			switch v := sn.vals[i].(type) {
			case int64:
				p.Int(name, labels, v)
			case int:
				p.Int(name, labels, int64(v))
			case float64:
				p.Value(name, labels, v)
			case bool:
				var n int64
				if v {
					n = 1
				}
				p.Int(name, labels, n)
			case HistSnapshot:
				p.Histogram(name, labels, v)
			}
		}
	}
	return p.Flush()
}

// latencyJSON is a histogram in the JSON document.
type latencyJSON struct {
	Count  int64 `json:"count"`
	SumNs  int64 `json:"sum_ns"`
	MaxNs  int64 `json:"max_ns"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P90Ns  int64 `json:"p90_ns"`
	P99Ns  int64 `json:"p99_ns"`
}

// jsonObject is a JSON object under construction that keeps its keys in
// insertion order.
type jsonObject struct {
	keys []string
	vals map[string]any
}

func (o *jsonObject) set(k string, v any) {
	if o.vals == nil {
		o.vals = map[string]any{}
	}
	if _, ok := o.vals[k]; !ok {
		o.keys = append(o.keys, k)
	}
	o.vals[k] = v
}

// object returns the nested object under k, creating it if absent.
func (o *jsonObject) object(k string) *jsonObject {
	child, ok := o.vals[k].(*jsonObject)
	if !ok {
		child = &jsonObject{}
		o.set(k, child)
	}
	return child
}

func (o *jsonObject) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, k := range o.keys {
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(o.vals[k])
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, kb...), ':'), vb...)
	}
	return append(b, '}'), nil
}
