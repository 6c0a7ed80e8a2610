package jsonski

import (
	"time"

	"jsonski/internal/telemetry"
)

// LatencySnapshot is a per-record evaluation-latency distribution,
// recorded by record-sequence runs and retrievable via
// Stats.Latency. Buckets are log-2 in nanoseconds (bucket i covers
// [2^(i-1), 2^i) ns), the scheme the daemon's /metrics/prom endpoint
// exports, so quantiles derived here and by Prometheus agree.
type LatencySnapshot struct {
	// Count is the number of records observed.
	Count int64
	// SumNanos is the total evaluation time in nanoseconds.
	SumNanos int64
	// MaxNanos is the slowest single record in nanoseconds.
	MaxNanos int64
	// Buckets holds the per-bucket observation counts.
	Buckets []int64
}

func latencyFromSnapshot(s telemetry.HistSnapshot) *LatencySnapshot {
	out := &LatencySnapshot{
		Count:    s.Count,
		SumNanos: s.SumNanos,
		MaxNanos: s.MaxNanos,
		Buckets:  append([]int64(nil), s.Buckets[:]...),
	}
	return out
}

func (ls *LatencySnapshot) hist() telemetry.HistSnapshot {
	var h telemetry.HistSnapshot
	h.Count = ls.Count
	h.SumNanos = ls.SumNanos
	h.MaxNanos = ls.MaxNanos
	copy(h.Buckets[:], ls.Buckets)
	return h
}

// Quantile estimates the q-th latency quantile (0 < q <= 1) from the
// buckets, interpolating within the target bucket and clamping to the
// observed maximum.
func (ls *LatencySnapshot) Quantile(q float64) time.Duration {
	h := ls.hist()
	return h.Quantile(q)
}

// P50 is the median per-record latency.
func (ls *LatencySnapshot) P50() time.Duration { return ls.Quantile(0.50) }

// P90 is the 90th-percentile per-record latency.
func (ls *LatencySnapshot) P90() time.Duration { return ls.Quantile(0.90) }

// P99 is the 99th-percentile per-record latency.
func (ls *LatencySnapshot) P99() time.Duration { return ls.Quantile(0.99) }

// Max is the slowest single record.
func (ls *LatencySnapshot) Max() time.Duration { return time.Duration(ls.MaxNanos) }

// Mean is the arithmetic mean per-record latency.
func (ls *LatencySnapshot) Mean() time.Duration {
	if ls.Count == 0 {
		return 0
	}
	return time.Duration(ls.SumNanos / ls.Count)
}
