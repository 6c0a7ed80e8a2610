package main

import (
	"bytes"

	"jsonski/internal/gen"
	"jsonski/internal/queries"
)

// runServe drives a jsonskid process (two workers) over loopback with
// an open loop at each of a few fixed rates. Every request is a POST
// /query with a ~64 KiB NDJSON body of one dataset's small records,
// rotating over the ten small-form Table 5 queries.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	bodies := map[string][]byte{}
	records := map[string][][]byte{}
	for _, ds := range gen.Names {
		recs, err := gen.GenerateRecords(ds, cfg.bodyBytes, dataSeed(cfg.seed, ds, 0))
		if err != nil {
			return nil, err
		}
		records[ds] = recs
		bodies[ds] = append(bytes.Join(recs, []byte{'\n'}), '\n')
		rep.logInput(ds+".ndjson", bodies[ds])
	}
	var cases []probeCase
	for _, q := range queries.All {
		if q.Small == "" {
			continue
		}
		c := probeCase{id: q.ID, dataset: q.Dataset, expr: q.Small, inputs: records[q.Dataset], body: bodies[q.Dataset], ndjson: true}
		for _, rec := range c.inputs {
			as, err := reference(rec, q.Small)
			if err != nil {
				return nil, err
			}
			c.want.count += as[0].count
			c.want.sum += as[0].sum
		}
		cases = append(cases, c)
	}
	if cfg.corrupt {
		cases[0].want.count++
	}
	pick := func(i int) *probeCase { return &cases[i%len(cases)] }

	// Set-up is process start to the first /readyz 200, median of nine
	// starts; the last daemon serves the run.
	var extra []string
	if cfg.trace {
		extra = append(extra, "-pprof")
	}
	var d *daemon
	var starts []float64
	for r := 0; r < 9; r++ {
		if d != nil {
			d.stop()
		}
		nd, took, err := startDaemon(cfg.jsonskid, extra...)
		if err != nil {
			return nil, err
		}
		d = nd
		starts = append(starts, took.Seconds())
	}
	defer d.stop()
	rep.metrics["setup_s"] = median(starts)
	if err := indexRatios(rep, cfg.work, docList(bodies), true); err != nil {
		return nil, err
	}

	if cfg.trace {
		c := newClient()
		defer c.CloseIdleConnections()
		var nav [][]byte
		for _, ds := range gen.Names {
			nav = append(nav, records[ds][0])
		}
		wm, err := gen.Generate("wm", cfg.bodyBytes, dataSeed(cfg.seed, "wm", 0))
		if err != nil {
			return nil, err
		}
		return rep, runTraced(cfg, rep, probeSet{
			cases: cases, docs: bodies, ndjson: true, nav: nav, wm: wm, rate: cfg.rates[(len(cfg.rates)-1)/2],
			op: func(tr *tracer, i int) error {
				sp := tr.start("http.query")
				err := d.query(c, pick(i))
				tr.end(sp, int64(len(pick(i).body)), 0)
				return err
			},
			memstats: d.memstats,
		})
	}

	// Warm the connections and the compiled-query cache, then climb the
	// ladder twice, each step for half its share of the run, and pool
	// each rate's two halves: a slow spell of the host then lands on
	// several rates partly rather than on one wholly.
	count := func(s stepResult) {
		rep.attempted += int64(len(s.lat))
		rep.failed += s.failed
		for _, e := range s.errs {
			rep.notef("FAIL %s", e)
		}
	}
	count(d.openLoop(cfg.rates[0], 2*len(cases), pick))
	steps := make([]stepResult, len(cfg.rates))
	per := cfg.seconds / float64(2*len(cfg.rates))
	for round := 0; round < 2; round++ {
		for k, rate := range cfg.rates {
			s := d.openLoop(rate, max(int(rate*per), 1), pick)
			count(s)
			steps[k].merge(s)
		}
	}
	for _, s := range steps {
		rep.notef("serve: rate %4.0f/s  n=%5d  achieved %6.1f/s  p50 %7.3f  p90 %7.3f  p95 %7.3f  p99 %8.3f ms  late p99 %8.3f ms  service p50 %.3f p90 %.3f ms  meets=%t",
			s.rate, len(s.lat), s.achieved(), median(s.lat), quantile(s.lat, 0.90), quantile(s.lat, 0.95), quantile(s.lat, 0.99), quantile(s.late, 0.99), median(s.service), quantile(s.service, 0.90), s.meets())
	}
	mid := steps[(len(steps)-1)/2]
	rep.metrics["p50_ms"] = median(mid.lat)
	// ops_s is the saturation throughput: the completion rate of the top
	// step, whose offered rate is past the knee, so both connections
	// stay busy. The knee itself, the highest rate meeting the limit, is
	// printed: over seeds 1-10 its quartile spread was 35% of its median
	// on the 2-vCPU host, because near capacity the tail swings between
	// a few and hundreds of ms.
	top := steps[len(steps)-1]
	rps := top.achieved()
	rep.metrics["ops_s"] = rps
	var body float64
	for _, c := range cases {
		body += float64(len(c.body))
	}
	rep.metrics["mb_s"] = rps * body / float64(len(cases)) / 1e6
	rep.notef("serve: p50_ms is at %.0f/s, where p%.0f is %.3f ms (%d samples above it); ops_s is the completion rate offered %.0f/s; highest rate meeting p%.0f <= %d ms: %.1f/s",
		mid.rate, 100*limitQuantile, mid.tail(), int(float64(len(mid.lat))*(1-limitQuantile)), top.rate, 100*limitQuantile, latencyLimitMs, maxRate(steps))
	return rep, nil
}

// maxRate is the highest fixed rate whose step met the latency limit,
// interpolated toward the next rate by where the limit falls between
// the two steps' tails, so the figure moves smoothly with capacity
// instead of jumping a whole step.
func maxRate(steps []stepResult) float64 {
	for k := len(steps) - 1; k >= 0; k-- {
		if !steps[k].meets() {
			continue
		}
		best := steps[k].rate
		if k+1 < len(steps) {
			a, b := steps[k].tail(), steps[k+1].tail()
			if b > a {
				best += min(max((latencyLimitMs-a)/(b-a), 0), 1) * (steps[k+1].rate - best)
			}
		}
		return best
	}
	return 0
}
