package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jsonski"
	"jsonski/internal/gen"
)

// runLarge is the paper's headline scenario (Fig 10, Table 6): the six
// datasets as one ~16 MiB record each, the twelve Table 5 large-record
// queries plus the skip-plan filter, every query from raw bytes through
// Query.RunSink, serially in a closed loop on one goroutine.
func runLarge(cfg config) (*report, error) {
	rep := newReport()
	qs := largeQueries()
	docs, err := genLarge(rep, cfg.largeBytes, cfg.seed, 0)
	if err != nil {
		return nil, err
	}
	refs := make([]answer, len(qs))
	if err := parallelDatasets(gen.Names, func(ds string) error {
		var idx []int
		var exprs []string
		for i, q := range qs {
			if q.dataset == ds {
				idx, exprs = append(idx, i), append(exprs, q.expr)
			}
		}
		as, err := reference(docs[ds], exprs...)
		for j, i := range idx {
			if err == nil {
				refs[i] = as[j]
			}
		}
		return err
	}); err != nil {
		return nil, err
	}

	// Set-up is query compilation, repeated for a stable median.
	compiled := make([]*jsonski.Query, len(qs))
	compileAll := func() error {
		for i, q := range qs {
			c, err := jsonski.Compile(q.expr)
			if err != nil {
				return err
			}
			compiled[i] = c
		}
		return nil
	}
	if rep.metrics["setup_s"], err = setupMedian(1001, compileAll); err != nil {
		return nil, err
	}

	cases := make([]probeCase, len(qs))
	for i, q := range qs {
		cases[i] = probeCase{id: q.id, dataset: q.dataset, expr: q.expr, inputs: [][]byte{docs[q.dataset]}, body: docs[q.dataset], want: refs[i]}
	}
	if cfg.corrupt {
		cases[0].want.count++
	}
	if cfg.trace {
		return rep, runTraced(cfg, rep, probeSet{
			cases: cases, docs: docs, nav: docList(docs), wm: docs["wm"], rate: 4,
			op: func(tr *tracer, i int) error { return largeOp(tr, compiled, cases, i) },
		})
	}

	var lats, passMB, passOps []float64
	end := deadline(cfg.seconds)
	for time.Now().Before(end) {
		start := time.Now()
		var bytes float64
		full := true
		for i := range qs {
			if i > 0 && !time.Now().Before(end) {
				full = false
				break
			}
			t0 := time.Now()
			err := largeOp(nil, compiled, cases, i)
			lats = append(lats, ms(time.Since(t0)))
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.notef("FAIL %s: %v", qs[i].id, err)
			}
			bytes += float64(len(cases[i].body))
		}
		if full {
			sec := time.Since(start).Seconds()
			passMB = append(passMB, bytes/1e6/sec)
			passOps = append(passOps, float64(len(qs))/sec)
		}
	}
	if len(passMB) == 0 {
		return nil, fmt.Errorf("large: no full pass in %gs", cfg.seconds)
	}
	rep.metrics["mb_s"] = median(passMB)
	rep.metrics["ops_s"] = median(passOps)
	rep.metrics["p50_ms"] = median(lats)
	rep.notef("large: %d passes, %d queries; p90 query latency %.3f ms (%d samples above it)",
		len(passMB), len(lats), quantile(lats, 0.90), len(lats)/10)
	return rep, indexRatios(rep, cfg.work, docList(docs), false)
}

// largeOp runs query i (mod the query count) from raw bytes and checks
// its output.
func largeOp(tr *tracer, compiled []*jsonski.Query, cases []probeCase, i int) error {
	i %= len(cases)
	c := &cases[i]
	var sink sumSink
	sp := tr.start("core.run_sink")
	st, err := compiled[i].RunSink(c.body, &sink)
	tr.end(sp, st.InputBytes, st.Matches)
	if err != nil {
		return err
	}
	return c.check(sink.got)
}

// genLarge generates one large-form document per dataset.
func genLarge(rep *report, size int, seed int64, version int) (map[string][]byte, error) {
	names := gen.Names
	docs := map[string][]byte{}
	var mu sync.Mutex
	err := parallelDatasets(names, func(ds string) error {
		d, err := gen.Generate(ds, size, dataSeed(seed, ds, version))
		mu.Lock()
		docs[ds] = d
		mu.Unlock()
		return err
	})
	for _, ds := range names {
		if docs[ds] != nil {
			rep.logInput(fmt.Sprintf("%s.v%d", ds, version), docs[ds])
		}
	}
	return docs, err
}

// parallelDatasets runs fn for every dataset on two goroutines (the
// host's vCPU count), returning the first error.
func parallelDatasets(names []string, fn func(ds string) error) error {
	next := make(chan string)
	errs := make(chan error, len(names))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ds := range next {
				errs <- fn(ds)
			}
		}()
	}
	for _, ds := range names {
		next <- ds
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func docList(docs map[string][]byte) [][]byte {
	var out [][]byte
	for _, ds := range gen.Names {
		if d, ok := docs[ds]; ok {
			out = append(out, d)
		}
	}
	return out
}

// indexRatios reports the structural index's memory and its sidecar's
// disk bytes per document byte over docs: index_mem_ratio is
// Index.MaskBytes()/Len(), sidecar_disk_ratio the saved .jski size.
// NDJSON bodies are saved with their record table, as /index does.
func indexRatios(rep *report, dir string, docs [][]byte, ndjson bool) error {
	var mask, n, file int64
	for i, d := range docs {
		ix := jsonski.BuildIndex(d)
		mask += int64(ix.MaskBytes())
		n += int64(ix.Len())
		var spans []jsonski.Span
		if ndjson {
			spans = jsonski.RecordSpans(d)
		}
		p := filepath.Join(dir, fmt.Sprintf("ratio-%d%s", i, jsonski.IndexExt))
		err := jsonski.SaveIndex(p, ix, spans)
		ix.Release()
		if err != nil {
			return err
		}
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		file += fi.Size()
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	rep.metrics["index_mem_ratio"] = float64(mask) / float64(n)
	rep.metrics["sidecar_disk_ratio"] = float64(file) / float64(n)
	return nil
}
