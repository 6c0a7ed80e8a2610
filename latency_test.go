package jsonski_test

import (
	"strings"
	"testing"

	"jsonski"
)

const latencyNDJSON = "{\"v\": 1}\n{\"v\": 2}\n{\"v\": 3}\n{\"v\": 4}\n"

// TestReaderLatencySnapshot checks that the streaming reader entry
// points attach a per-record latency distribution with sane invariants.
func TestReaderLatencySnapshot(t *testing.T) {
	q := jsonski.MustCompile("$.v")
	st, err := q.RunReader(strings.NewReader(latencyNDJSON), nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := st.Latency()
	if lat == nil {
		t.Fatal("RunReader attached no latency snapshot")
	}
	if lat.Count != 4 {
		t.Fatalf("count = %d, want 4", lat.Count)
	}
	if lat.SumNanos <= 0 || lat.MaxNanos <= 0 {
		t.Fatalf("sum %d / max %d must be positive", lat.SumNanos, lat.MaxNanos)
	}
	p50, p99, max := lat.P50(), lat.P99(), lat.Max()
	if p50 <= 0 || p50 > p99 || p99 > max {
		t.Fatalf("quantiles not monotone: p50 %v p99 %v max %v", p50, p99, max)
	}
	if mean := lat.Mean(); mean <= 0 || mean > max {
		t.Fatalf("mean %v out of range (max %v)", mean, max)
	}
}

// TestReaderParallelLatencyShared checks the parallel reader: workers
// share one lock-free histogram, so the merged snapshot still counts
// every record exactly once.
func TestReaderParallelLatencyShared(t *testing.T) {
	q := jsonski.MustCompile("$.v")
	var in strings.Builder
	for i := 0; i < 300; i++ {
		in.WriteString("{\"pad\": [1, 2, 3], \"v\": 7}\n")
	}
	st, err := q.RunReaderParallel(strings.NewReader(in.String()), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := st.Latency()
	if lat == nil {
		t.Fatal("parallel reader attached no latency snapshot")
	}
	if lat.Count != 300 {
		t.Fatalf("count = %d, want 300", lat.Count)
	}
	var bucketSum int64
	for _, c := range lat.Buckets {
		bucketSum += c
	}
	if bucketSum != lat.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, lat.Count)
	}
}

// TestQuerySetReaderLatency covers the QuerySet reader.
func TestQuerySetReaderLatency(t *testing.T) {
	qs, err := jsonski.CompileSet("$.v", "$.w")
	if err != nil {
		t.Fatal(err)
	}
	st, err := qs.RunReader(strings.NewReader("{\"v\": 1, \"w\": 2}\n{\"v\": 3}\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	lat := st.Latency()
	if lat == nil || lat.Count != 2 {
		t.Fatalf("latency = %+v, want 2 records", lat)
	}
}

// TestRunRecordsHasNoLatency pins that the paper-benchmark surfaces
// stay untimed: only the streaming readers observe per-record latency.
func TestRunRecordsHasNoLatency(t *testing.T) {
	q := jsonski.MustCompile("$.v")
	st, err := q.RunRecords([][]byte{[]byte(`{"v": 1}`)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency() != nil {
		t.Fatal("RunRecords attached a latency snapshot")
	}
}
