package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setupMedian times fn reps times and returns the median in seconds.
// It first collects the garbage of input generation, whose background
// marking would otherwise land in the timings.
func setupMedian(reps int, fn func() error) (float64, error) {
	runtime.GC()
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// runtimeSample is a snapshot of the Go runtime counters behind the
// runtime.* layer metrics: MemStats.Mallocs, NumGC and the PauseNs ring
// of recent pauses, which is all a heap profile's debug text carries.
type runtimeSample struct {
	mallocs uint64
	numGC   uint32
	pauses  [256]uint64
}

func sampleRuntime() (runtimeSample, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSample{m.Mallocs, m.NumGC, m.PauseNs}, nil
}

// pauseBetween is the GC pause time (ns) of the collections between
// samples a and b, from b's ring (exact up to 256 collections).
func pauseBetween(a, b runtimeSample) uint64 {
	var t uint64
	for k := max(a.numGC, b.numGC-min(b.numGC, 256)) + 1; k <= b.numGC; k++ {
		t += b.pauses[(k+255)%256] // the k-th collection's pause
	}
	return t
}
