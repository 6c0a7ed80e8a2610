package server

import (
	"reflect"
	"testing"

	"jsonski/internal/telemetry"
)

// TestEveryMetricDeclared checks that every live counter and histogram
// of the metrics struct is declared in the server's metric table, once,
// with both a JSON key and a Prometheus family: a counter that is never
// declared, or declared for one exposition only, fails here.
func TestEveryMetricDeclared(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	declared := map[telemetry.Source]telemetry.Metric{}
	for _, m := range s.table {
		switch m.Source.(type) {
		case *telemetry.Counter, *telemetry.Histogram:
			if _, dup := declared[m.Source]; dup {
				t.Errorf("%s: source declared twice", m.Key)
			}
			declared[m.Source] = m
		}
	}

	// source returns the address of an (unexported) field as a Source.
	source := func(f reflect.Value) (telemetry.Source, bool) {
		src, ok := reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Interface().(telemetry.Source)
		return src, ok
	}
	var live []telemetry.Source
	var names []string
	v := reflect.ValueOf(&s.m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		elems := []reflect.Value{f}
		if f.Kind() == reflect.Array {
			elems = elems[:0]
			for j := 0; j < f.Len(); j++ {
				elems = append(elems, f.Index(j))
			}
		}
		for _, e := range elems {
			src, ok := source(e)
			if !ok {
				t.Fatalf("metrics.%s: %s is neither a telemetry.Counter nor a telemetry.Histogram", name, f.Type())
			}
			live, names = append(live, src), append(names, name)
		}
	}
	for i, src := range live {
		m, ok := declared[src]
		switch {
		case !ok:
			t.Errorf("metrics.%s is not declared in declareMetrics: it reaches neither /metrics nor /metrics/prom", names[i])
		case m.Key == "":
			t.Errorf("metrics.%s has no JSON key: it is missing from /metrics", names[i])
		case m.Name == "":
			t.Errorf("metrics.%s (%s) has no Prometheus family: it is missing from /metrics/prom", names[i], m.Key)
		}
	}
}
