package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"jsonski"
	"jsonski/internal/automaton"
	"jsonski/internal/bits"
	"jsonski/internal/core"
	"jsonski/internal/jsonpath"
)

// probeCase is one (query, input) pair a workload evaluates. inputs
// holds one document, or the records of an NDJSON body; body is what an
// HTTP request for the case sends.
type probeCase struct {
	id, dataset, expr string
	inputs            [][]byte
	body              []byte
	ndjson            bool
	want              answer
}

func (c *probeCase) check(got answer) error {
	if got != c.want {
		return fmt.Errorf("%s %s: %d matches (checksum %x), reference has %d (checksum %x)",
			c.id, c.expr, got.count, got.sum, c.want.count, c.want.sum)
	}
	return nil
}

func (c *probeCase) bytes() int64 {
	var n int64
	for _, in := range c.inputs {
		n += int64(len(in))
	}
	return n
}

// probeSet is what a workload hands the traced run: its cases, the
// documents the classification, store and on-demand probes walk, a
// large-form wm document for the filter probe, the open-loop rate of
// the server probe, and the workload's own operation (run untraced
// and traced to measure the tracing overhead).
type probeSet struct {
	cases    []probeCase
	docs     map[string][]byte
	ndjson   bool // docs are NDJSON bodies
	nav      [][]byte
	wm       []byte
	rate     float64
	op       func(tr *tracer, i int) error
	memstats func() (runtimeSample, error) // nil: this process's runtime
}

// tracedDetail is written to the trace file.
type tracedDetail struct {
	Layers         []layerRow     `json:"layers"`
	Queries        []queryBytes   `json:"queries"`
	Reconciliation []reconcileRow `json:"reconciliation"`
	Spans          []span         `json:"spans"`
}

// queryBytes is one query's Table 1 byte accounting.
type queryBytes struct {
	ID          string   `json:"id"`
	Query       string   `json:"query"`
	Input       int64    `json:"input_bytes"`
	Scanned     int64    `json:"scanned_bytes"`
	Groups      [5]int64 `json:"ff_bytes_g1_g5"`
	IdentityGap int64    `json:"identity_gap_bytes"`
}

func accounting(id, expr string, st jsonski.Stats) queryBytes {
	q := queryBytes{ID: id, Query: expr, Input: st.InputBytes, Scanned: st.ScannedBytes(), Groups: st.SkippedBytes}
	q.IdentityGap = q.Input - q.Scanned
	for _, g := range q.Groups {
		q.IdentityGap -= g
	}
	return q
}

// reconcileRow compares independently measured layer rows with the
// end-to-end figure they should add up to.
type reconcileRow struct {
	Name       string             `json:"name"`
	RowsMs     map[string]float64 `json:"rows_ms"`
	SumMs      float64            `json:"sum_ms"`
	EndToEndMs float64            `json:"end_to_end_ms"`
	Residual   float64            `json:"residual_frac"`
	Tolerance  float64            `json:"tolerance_frac"`
	Within     bool               `json:"within_tolerance"`
	Overhead   float64            `json:"trace_overhead_frac"`
}

// reconcileTolerance is the stated bound on |sum/end-to-end - 1|.
const reconcileTolerance = 0.15

func reconcile(name string, rows map[string]float64, e2e, overhead float64) reconcileRow {
	r := reconcileRow{Name: name, RowsMs: rows, EndToEndMs: e2e, Tolerance: reconcileTolerance, Overhead: overhead}
	for _, v := range rows {
		r.SumMs += v
	}
	r.Residual = r.SumMs/e2e - 1
	r.Within = math.Abs(r.Residual) <= reconcileTolerance
	return r
}

// prober runs the layer probes of one traced run.
type prober struct {
	cfg config
	rep *report
	ps  probeSet
	tr  *tracer
}

func (p *prober) fail(format string, args ...any) {
	p.rep.failed++
	p.rep.notef("FAIL "+format, args...)
}

// runTraced is the traced run: the tracing overhead on the workload's
// own operation, then each layer timed by ablation under spans, then
// the server probe. End-to-end metrics never come from here.
func runTraced(cfg config, rep *report, ps probeSet) error {
	p := &prober{cfg: cfg, rep: rep, ps: ps, tr: newTracer()}
	var det tracedDetail
	overhead, err := p.overhead()
	if err != nil {
		return err
	}
	var e2eMs float64
	det.Queries, e2eMs = p.engine()
	p.classify()
	p.filter()
	p.compile()
	if err := p.nav(); err != nil {
		return err
	}
	if err := p.store(); err != nil {
		return err
	}

	// Engine reconciliation: lazy classification + descent (both from
	// the ablation) against the untraced raw-bytes pass.
	raw, desc := p.tr.medianSelf("core.raw")/1e6, p.tr.medianSelf("core.descent")/1e6
	eng := reconcile("engine", map[string]float64{"lazy_classify": raw - desc, "descent": desc}, e2eMs, overhead)
	rep.metrics["reconcile.engine_residual_frac"] = eng.Residual

	srv, err := p.server()
	if err != nil {
		return err
	}
	det.Reconciliation = []reconcileRow{eng, srv}
	det.Layers = p.tr.rows()
	det.Spans = p.tr.spans
	rep.detail = det
	for _, r := range det.Reconciliation {
		rep.notef("reconcile %-6s sum %.3f ms vs end-to-end %.3f ms: residual %+.1f%% (tolerance ±%.0f%%, within=%t), trace overhead %+.1f%%, rows %v",
			r.Name, r.SumMs, r.EndToEndMs, 100*r.Residual, 100*r.Tolerance, r.Within, 100*r.Overhead, r.RowsMs)
	}
	for _, q := range det.Queries {
		rep.notef("bytes %-5s input=%d scanned=%d ff=%v identity_gap=%d", q.ID, q.Input, q.Scanned, q.Groups, q.IdentityGap)
	}
	for _, l := range det.Layers {
		rep.notef("span %-20s n=%6d total %10.3f ms  self %10.3f ms  bytes %d  matches %d", l.Name, l.Spans, l.TotalMs, l.SelfMs, l.Bytes, l.Matches)
	}
	return nil
}

// overhead alternates untraced and traced chunks of the workload's
// operation (the same op indices on both sides) and returns the median
// traced/untraced time ratio minus one. The untraced chunks also give
// the runtime.* metrics.
func (p *prober) overhead() (float64, error) {
	n := len(p.ps.cases)
	sample := sampleRuntime
	if p.ps.memstats != nil {
		sample = p.ps.memstats
	}
	var ratios []float64
	var mallocs, pauseNs uint64
	var ops int64
	end := deadline(0.25 * p.cfg.seconds)
	for pair := 0; pair < 4 || time.Now().Before(end); pair++ {
		// Alternate which side runs first, so drift and warm-up land
		// on both.
		var traced time.Duration
		if pair%2 == 1 {
			traced = p.chunk(p.tr, pair*n, n)
		}
		a, err := sample()
		if err != nil {
			return 0, err
		}
		untraced := p.chunk(nil, pair*n, n)
		b, err := sample()
		if err != nil {
			return 0, err
		}
		mallocs += b.mallocs - a.mallocs
		pauseNs += pauseBetween(a, b)
		ops += int64(n)
		if pair%2 == 0 {
			traced = p.chunk(p.tr, pair*n, n)
		}
		ratios = append(ratios, traced.Seconds()/untraced.Seconds())
	}
	p.rep.metrics["runtime.allocs_per_op"] = float64(mallocs) / float64(ops)
	p.rep.metrics["runtime.gc_pause_ms"] = float64(pauseNs) / 1e6 / float64(ops)
	ov := median(ratios) - 1
	p.rep.metrics["trace.overhead_frac"] = ov
	return ov, nil
}

// chunk runs the workload's ops first..first+n-1, traced when tr is
// non-nil, and returns the time they took.
func (p *prober) chunk(tr *tracer, first, n int) time.Duration {
	t0 := time.Now()
	for i := first; i < first+n; i++ {
		root := tr.beginOp("op", i%n)
		p.rep.attempted++
		if err := p.ps.op(tr, i); err != nil {
			p.fail("op %d: %v", i, err)
		}
		tr.end(root, 0, 0)
	}
	return time.Since(t0)
}

// runRaw evaluates a case from raw bytes into sink.
func runRaw(q *jsonski.Query, c *probeCase, sink jsonski.Sink) (jsonski.Stats, error) {
	if c.ndjson {
		return q.RunRecordsSink(c.inputs, sink)
	}
	return q.RunSink(c.inputs[0], sink)
}

func (p *prober) compiled() []*jsonski.Query {
	qs := make([]*jsonski.Query, len(p.ps.cases))
	for i, c := range p.ps.cases {
		qs[i] = jsonski.MustCompile(c.expr)
	}
	return qs
}

// reps is how many times a probe repeats over an input of n bytes:
// enough for about 2 MB per input, at least three.
func reps(n int64) int {
	return int(min(max(2e6/float64(max(n, 1)), 3), 50))
}

// engine times, per case, the raw-bytes run, the index build, the
// descent over the prebuilt index and the streaming sink. It returns
// the per-query byte accounting and the median untraced raw-bytes pass
// over all cases (ms), the figure the engine rows reconcile against.
func (p *prober) engine() ([]queryBytes, float64) {
	qs := p.compiled()
	var acct []queryBytes
	var kb, matches float64
	var words, wordBytes int64
	var g [5]int64
	var scanned, input, gap int64
	var passes []float64
	rounds, full := 0, 50
	for _, c := range p.ps.cases {
		rounds = max(rounds, reps(c.bytes()))
		full = min(full, reps(c.bytes()))
	}
	// Each repetition walks all cases in order, as the untraced pass
	// does, so every run finds the caches as that pass would. The
	// untraced passes interleave with the repetitions, so both see the
	// same spell of the host.
	for r := 0; r < rounds; r++ {
		if r < full {
			t0 := time.Now()
			for i := range p.ps.cases {
				var cs jsonski.CountSink
				_, _ = runRaw(qs[i], &p.ps.cases[i], &cs)
			}
			passes = append(passes, ms(time.Since(t0)))
		}
		for ci := range p.ps.cases {
			c := &p.ps.cases[ci]
			q := qs[ci]
			if r >= reps(c.bytes()) {
				continue
			}
			if r == 0 {
				kb += float64(c.bytes()) / 1024
			}
			op := p.tr.beginOp("probe.engine", ci)
			var cs jsonski.CountSink
			sp := p.tr.start("core.raw")
			st, err := runRaw(q, c, &cs)
			p.tr.end(sp, st.InputBytes, st.Matches)
			p.rep.attempted++
			if err != nil || st.Matches != c.want.count {
				p.fail("%s raw: %d matches, want %d (%v)", c.id, st.Matches, c.want.count, err)
			}
			sp = p.tr.start("stream.index_build")
			ixs := make([]*jsonski.Index, len(c.inputs))
			for i, in := range c.inputs {
				ixs[i] = jsonski.BuildIndex(in)
			}
			p.tr.end(sp, c.bytes(), 0)
			var ci2 jsonski.CountSink
			sp = p.tr.start("core.descent")
			for _, ix := range ixs {
				if _, e := q.RunIndexedSink(ix, &ci2); e != nil {
					err = e
				}
			}
			p.tr.end(sp, c.bytes(), ci2.Spans)
			for _, ix := range ixs {
				ix.Release()
			}
			p.rep.attempted++
			if err != nil || ci2.Spans != c.want.count {
				p.fail("%s indexed: %d matches, want %d (%v)", c.id, ci2.Spans, c.want.count, err)
			}
			sp = p.tr.start("sink.stream")
			ss := jsonski.NewStreamSink(io.Discard)
			_, err = runRaw(q, c, ss)
			p.tr.end(sp, c.bytes(), ss.Spans)
			p.tr.end(op, 0, 0)
			p.rep.attempted++
			if err != nil || ss.Spans != c.want.count {
				p.fail("%s stream sink: %d matches, want %d (%v)", c.id, ss.Spans, c.want.count, err)
			}
			if r == 0 {
				matches += float64(st.Matches)
				a := accounting(c.id, c.expr, st)
				acct = append(acct, a)
				for i := range g {
					g[i] += a.Groups[i]
				}
				scanned += a.Scanned
				input += a.Input
				gap += a.IdentityGap
				for _, in := range c.inputs {
					cst, err := coreRun(c.expr, in)
					if err != nil {
						p.fail("%s core engine: %v", c.id, err)
					}
					words += int64(cst.WordsProcessed)
					wordBytes += int64(len(in))
				}
			}
		}
	}
	m := p.rep.metrics
	raw, desc := p.tr.medianSelf("core.raw"), p.tr.medianSelf("core.descent")
	m["core.descent_ns_per_kb"] = desc / kb
	m["core.lazy_classify_ns_per_kb"] = (raw - desc) / kb
	m["stream.index_build_ns_per_kb"] = p.tr.medianSelf("stream.index_build") / kb
	m["stream.words_per_kb"] = float64(words) / (float64(wordBytes) / 1024)
	m["sink.stream_ns_per_match"] = (p.tr.medianSelf("sink.stream") - raw) / max(matches, 1)
	for i := range g {
		m[fmt.Sprintf("ff.g%d_bytes", i+1)] = float64(g[i])
	}
	m["ff.scanned_bytes"] = float64(scanned)
	m["ff.skip_ratio"] = 1 - float64(scanned)/float64(input)
	m["ff.identity_gap_bytes"] = float64(gap)
	return acct, median(passes)
}

// coreRun evaluates expr with the internal engine the public Compile
// would pick, for the WordsProcessed count the public Stats omit.
func coreRun(expr string, data []byte) (core.Stats, error) {
	path, err := jsonpath.Parse(expr)
	if err != nil {
		return core.Stats{}, err
	}
	switch {
	case path.SplitPoint() >= 0:
		e, err := core.NewSegmentedEngine(path)
		if err != nil {
			return core.Stats{}, err
		}
		return e.Run(data, nil)
	case path.HasDescendant():
		e, err := core.NewNFAEngine(path)
		if err != nil {
			return core.Stats{}, err
		}
		return e.Run(data, nil)
	}
	return core.NewEngine(automaton.New(path)).Run(data, nil)
}

// classifySink keeps the classification loop's results live.
var classifySink uint64

// classify times the full SWAR classification pipeline over the
// workload's documents.
func (p *prober) classify() {
	var kb float64
	di := 0
	for _, doc := range docList(p.ps.docs) {
		kb += float64(len(doc)) / 1024
		for r := 0; r < reps(int64(len(doc))); r++ {
			op := p.tr.beginOp("probe.bits", di)
			sp := p.tr.start("bits.classify")
			classifySink += classifyAll(doc)
			p.tr.end(sp, int64(len(doc)), 0)
			p.tr.end(op, 0, 0)
		}
		di++
	}
	p.rep.metrics["bits.classify_ns_per_kb"] = p.tr.medianSelf("bits.classify") / kb
}

// classifyAll is stream.NewIndex's per-word loop without the stores:
// load, quote/backslash masks, escape and string carries, structural
// classification.
func classifyAll(data []byte) uint64 {
	var (
		blk bits.Block
		ec  bits.EscapeCarry
		sc  bits.StringCarry
		acc uint64
	)
	for base := 0; base < len(data); base += bits.WordSize {
		end := min(base+bits.WordSize, len(data))
		blk.Load(data[base:end])
		quotes, backslash := blk.QuoteAndBackslashMasks()
		quotes &^= ec.Escaped(backslash)
		inStr := sc.InStringMask(quotes)
		lb, rb, lk, rk, co, cm, ws := blk.ClassifyStructural()
		acc += (lb | rb | lk | rk | co | cm | ws) &^ inStr
	}
	return acc
}

// filter times the skip-plan filter against the same descent without
// the predicate, and reports the filter's byte identity gap.
func (p *prober) filter() {
	const plain = "$.it[*].itemId"
	wm := p.ps.wm
	refs, err := reference(wm, filterQuery, plain)
	if err != nil {
		p.fail("filter reference: %v", err)
		return
	}
	fq, pq := jsonski.MustCompile(filterQuery), jsonski.MustCompile(plain)
	var fst jsonski.Stats
	for r := 0; r < reps(int64(len(wm))); r++ {
		op := p.tr.beginOp("probe.filter", 0)
		for j, q := range []*jsonski.Query{fq, pq} {
			var s sumSink
			sp := p.tr.start([]string{"filter.run", "filter.plain"}[j])
			st, err := q.RunSink(wm, &s)
			p.tr.end(sp, st.InputBytes, st.Matches)
			p.rep.attempted++
			if err != nil || s.got != refs[j] {
				p.fail("filter probe %s: %+v want %+v (%v)", q, s.got, refs[j], err)
			}
			if j == 0 {
				fst = st
			}
		}
		p.tr.end(op, 0, 0)
	}
	kb := float64(len(wm)) / 1024
	p.rep.metrics["filter.probe_ns_per_kb"] = (p.tr.medianSelf("filter.run") - p.tr.medianSelf("filter.plain")) / kb
	p.rep.metrics["ff.filter_identity_gap_bytes"] = float64(accounting("WMF", filterQuery, fst).IdentityGap)
}

// compile times jsonski.Compile of each case's query.
func (p *prober) compile() {
	for ci, c := range p.ps.cases {
		for r := 0; r < 101; r++ {
			op := p.tr.beginOp("probe.compile", ci)
			sp := p.tr.start("jsonpath.compile")
			_, err := jsonski.Compile(c.expr)
			p.tr.end(sp, 0, 0)
			p.tr.end(op, 0, 0)
			if err != nil {
				p.fail("compile %s: %v", c.expr, err)
			}
		}
	}
	p.rep.metrics["jsonpath.compile_us"] = p.tr.medianSelf("jsonpath.compile") / 1e3 / float64(len(p.ps.cases))
}

// nav times on-demand Lookups over indexed documents.
func (p *prober) nav() error {
	n := 0
	for di, doc := range p.ps.nav {
		lks, err := pickLookups(doc, 4, p.cfg.seed+int64(di))
		if err != nil {
			return err
		}
		ix := jsonski.BuildIndex(doc)
		for _, lk := range lks {
			for r := 0; r < 5; r++ {
				op := p.tr.beginOp("probe.nav", n)
				sp := p.tr.start("nav.lookup")
				err := lk.check(ix)
				p.tr.end(sp, 0, 0)
				p.tr.end(op, 0, 0)
				p.rep.attempted++
				if err != nil {
					p.fail("%v", err)
				}
			}
			n++
		}
		ix.Release()
	}
	p.rep.metrics["nav.lookup_us"] = p.tr.medianSelf("nav.lookup") / 1e3 / float64(n)
	return nil
}

// store times catalog Put, Get and warm open over the workload's
// documents in a fresh sidecar directory.
func (p *prober) store() error {
	dir := filepath.Join(p.cfg.work, "probe-store")
	docs := docList(p.ps.docs)
	cat, err := jsonski.OpenCatalog(dir, 1<<40)
	if err != nil {
		return err
	}
	for di, d := range docs {
		var spans []jsonski.Span
		if p.ps.ndjson {
			spans = jsonski.RecordSpans(d)
		}
		op := p.tr.beginOp("probe.store", di)
		sp := p.tr.start("store.put")
		ix, _, err := cat.Put(d, spans)
		p.tr.end(sp, int64(len(d)), 0)
		p.tr.end(op, 0, 0)
		if err != nil {
			cat.Close()
			return err
		}
		ix.Release()
	}
	cat.Close()
	for r := 0; r < 3; r++ {
		op := p.tr.beginOp("probe.store", 0)
		sp := p.tr.start("store.warm")
		cat, err = jsonski.OpenCatalog(dir, 1<<40)
		p.tr.end(sp, 0, 0)
		p.tr.end(op, 0, 0)
		if err != nil {
			return err
		}
		if r < 2 {
			cat.Close()
		}
	}
	for r := 0; r < 5; r++ {
		for di, d := range docs {
			op := p.tr.beginOp("probe.store", di)
			sp := p.tr.start("store.get")
			ix, _ := cat.Get(d)
			p.tr.end(sp, int64(len(d)), 0)
			p.tr.end(op, 0, 0)
			p.rep.attempted++
			if ix == nil || ix.Len() != len(d) {
				p.fail("store.get of document %d missed", di)
				continue
			}
			ix.Release()
		}
	}
	cat.Close()
	nd := float64(len(docs))
	p.rep.metrics["store.put_ms"] = p.tr.medianSelf("store.put") / 1e6 / nd
	p.rep.metrics["store.get_us"] = p.tr.medianSelf("store.get") / 1e3 / nd
	p.rep.metrics["store.warm_ms"] = p.tr.medianSelf("store.warm") / 1e6
	return os.RemoveAll(dir)
}

// server starts a fresh daemon and drives the workload's cases over
// loopback at the probe rate, reading /metrics before and after and
// polling its queue depth during the run.
func (p *prober) server() (reconcileRow, error) {
	d, _, err := startDaemon(p.cfg.jsonskid)
	if err != nil {
		return reconcileRow{}, err
	}
	defer d.stop()
	before, err := d.metrics()
	if err != nil {
		return reconcileRow{}, err
	}
	var qmax atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if m, err := d.metrics(); err == nil && int64(m.Workers.QueueDepth) > qmax.Load() {
				qmax.Store(int64(m.Workers.QueueDepth))
			}
		}
	}()
	cases := p.ps.cases
	n := max(2*len(cases), int(p.ps.rate*0.15*p.cfg.seconds))
	res := d.openLoop(p.ps.rate, n, func(i int) *probeCase { return &cases[i%len(cases)] })
	close(stop)
	wg.Wait()
	after, err := d.metrics()
	if err != nil {
		return reconcileRow{}, err
	}
	p.rep.attempted += int64(n)
	p.rep.failed += res.failed
	for _, e := range res.errs {
		p.rep.notef("FAIL server probe %s", e)
	}

	m := p.rep.metrics
	m["server.handler_p50_ms"] = float64(after.Latency.Query.P50Ns) / 1e6
	m["server.record_p50_us"] = float64(after.Latency.Record.P50Ns) / 1e3
	m["server.queue_depth_max"] = float64(qmax.Load())
	m["server.cache_hit_rate"] = after.Cache.HitRate
	m["server.generator_lag_ms"] = quantile(res.late, 0.99)

	// Serving reconciliation, per request: engine and sink measured
	// in-process, server dispatch from the daemon's own handler and
	// record timings, transport from the client. Their sum should be
	// the client-side service time. The daemon runs NDJSON records from
	// raw bytes, and single documents over its index cache, whose
	// lookups and builds are dispatch.
	reqs := float64(after.Requests.Query - before.Requests.Query)
	handler := float64(after.Latency.Query.SumNs-before.Latency.Query.SumNs) / reqs / 1e6
	records := float64(after.Latency.Record.SumNs-before.Latency.Record.SumNs) / reqs / 1e6
	nc := float64(len(cases))
	raw := p.tr.medianSelf("core.raw") / nc / 1e6
	sink := p.tr.medianSelf("sink.stream")/nc/1e6 - raw
	engine := raw
	if !p.ps.ndjson {
		engine = p.tr.medianSelf("core.descent") / nc / 1e6
	}
	service := mean(res.service)
	m["server.outside_engine_share"] = 1 - (engine+sink)/service
	row := reconcile("serve", map[string]float64{
		"engine": engine, "sink": sink, "server_dispatch": handler - records, "transport": service - handler,
	}, service, m["trace.overhead_frac"])
	m["reconcile.serve_residual_frac"] = row.Residual
	return row, nil
}
