package main

import (
	"fmt"
	"path/filepath"
	"time"

	"jsonski"
	"jsonski/internal/gen"
	"jsonski/internal/queries"
)

// writeEvery is the hot workload's write cadence: one op in 16 replaces
// a document.
const writeEvery = 16

// hotLookups is how many on-demand Lookups a read op makes.
const hotLookups = 3

// hotState is the hot workload: a warmed sidecar catalog over six
// documents, each in two seeded versions that writes alternate.
type hotState struct {
	dir      string
	cat      *jsonski.Catalog
	versions [2]map[string][]byte
	refs     [2]map[string]answer
	lookups  [2]map[string][]lookup
	sets     map[string]*jsonski.QuerySet
	cur      map[string]int
}

// runHot reads from and writes to a warmed Catalog: a read is
// Catalog.Get, the dataset's Table 5 queries as one QuerySet over the
// mapped index, and a few on-demand Lookups; one op in 16 is a
// Catalog.Put of the document's other version plus a Delete of the old.
func runHot(cfg config) (*report, error) {
	rep := newReport()
	h := &hotState{dir: filepath.Join(cfg.work, "catalog"), sets: map[string]*jsonski.QuerySet{}, cur: map[string]int{}}
	for v := 0; v < 2; v++ {
		docs, err := genLarge(rep, cfg.hotBytes, cfg.seed, v)
		if err != nil {
			return nil, err
		}
		h.versions[v], h.refs[v], h.lookups[v] = docs, map[string]answer{}, map[string][]lookup{}
	}
	var cases []probeCase
	for _, ds := range gen.Names {
		var exprs []string
		for _, q := range queries.ForDataset(ds) {
			exprs = append(exprs, q.Large)
		}
		qs, err := jsonski.CompileSet(exprs...)
		if err != nil {
			return nil, err
		}
		h.sets[ds] = qs
		for v := 0; v < 2; v++ {
			doc := h.versions[v][ds]
			as, err := reference(doc, exprs...)
			if err != nil {
				return nil, err
			}
			var all answer
			for _, a := range as {
				all.count += a.count
				all.sum += a.sum
			}
			h.refs[v][ds] = all
			if h.lookups[v][ds], err = pickLookups(doc, hotLookups, dataSeed(cfg.seed, ds, v)); err != nil {
				return nil, err
			}
			if v == 0 {
				for i, e := range exprs {
					cases = append(cases, probeCase{id: queries.ForDataset(ds)[i].ID, dataset: ds, expr: e, inputs: [][]byte{doc}, body: doc, want: as[i]})
				}
			}
		}
	}

	if cfg.corrupt {
		r := h.refs[0][gen.Names[0]]
		r.count++
		h.refs[0][gen.Names[0]] = r
	}

	// The catalog starts with version 0 of every document on disk; set-up
	// is opening it (mapping the sidecars) and one read of each document.
	cat, err := jsonski.OpenCatalog(h.dir, 1<<40)
	if err != nil {
		return nil, err
	}
	for _, ds := range gen.Names {
		ix, _, err := cat.Put(h.versions[0][ds], nil)
		if err != nil {
			return nil, err
		}
		ix.Release()
	}
	cat.Close()
	defer func() {
		if h.cat != nil {
			h.cat.Close()
		}
	}()
	rep.metrics["setup_s"], err = setupMedian(9, func() error {
		if h.cat != nil {
			h.cat.Close()
		}
		if h.cat, err = jsonski.OpenCatalog(h.dir, 1<<40); err != nil {
			return err
		}
		for i := range gen.Names {
			rep.attempted++
			if err := h.op(nil, i); err != nil {
				rep.failed++
				rep.notef("FAIL warm-up op %d: %v", i, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := indexRatios(rep, cfg.work, docList(h.versions[0]), false); err != nil {
		return nil, err
	}
	if cfg.trace {
		return rep, runTraced(cfg, rep, probeSet{
			cases: cases, docs: h.versions[0], nav: docList(h.versions[0]), wm: h.versions[0]["wm"], rate: 20,
			op: h.op,
		})
	}

	var lats, winOps, winMB []float64
	var winBytes float64
	winStart := time.Now()
	end := deadline(cfg.seconds)
	for i := 0; time.Now().Before(end); i++ {
		ds := h.dataset(i)
		winBytes += float64(len(h.versions[h.cur[ds]][ds]))
		t0 := time.Now()
		err := h.op(nil, i)
		lats = append(lats, ms(time.Since(t0)))
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.notef("FAIL op %d: %v", i, err)
		}
		if i%writeEvery == writeEvery-1 {
			sec := time.Since(winStart).Seconds()
			winOps = append(winOps, writeEvery/sec)
			winMB = append(winMB, winBytes/1e6/sec)
			winBytes, winStart = 0, time.Now()
		}
	}
	if len(winOps) == 0 {
		return nil, fmt.Errorf("hot: no full window of %d ops in %gs", writeEvery, cfg.seconds)
	}
	rep.metrics["ops_s"] = median(winOps)
	rep.metrics["mb_s"] = median(winMB)
	rep.metrics["p50_ms"] = median(lats)
	rep.notef("hot: %d ops in %d windows of %d; p99 op latency %.3f ms (%d samples above it)",
		len(lats), len(winOps), writeEvery, quantile(lats, 0.99), len(lats)/100)
	return rep, nil
}

// dataset is the document op i works on: reads rotate over the
// datasets, and so do the writes among themselves.
func (h *hotState) dataset(i int) string {
	if i%writeEvery == writeEvery-1 {
		return gen.Names[(i/writeEvery)%len(gen.Names)]
	}
	return gen.Names[i%len(gen.Names)]
}

// op runs hot op i and checks its output.
func (h *hotState) op(tr *tracer, i int) error {
	ds := h.dataset(i)
	v := h.cur[ds]
	doc := h.versions[v][ds]
	if i%writeEvery == writeEvery-1 {
		sp := tr.start("store.put")
		ix, _, err := h.cat.Put(h.versions[1-v][ds], nil)
		tr.end(sp, int64(len(doc)), 0)
		if err != nil {
			return fmt.Errorf("put %s: %w", ds, err)
		}
		ix.Release()
		sp = tr.start("store.delete")
		ok := h.cat.Delete(jsonski.ContentHash(doc))
		tr.end(sp, 0, 0)
		if !ok {
			return fmt.Errorf("delete %s: no entry", ds)
		}
		h.cur[ds] = 1 - v
		return nil
	}
	sp := tr.start("store.get")
	ix, _ := h.cat.Get(doc)
	tr.end(sp, int64(len(doc)), 0)
	if ix == nil {
		return fmt.Errorf("get %s: catalog miss", ds)
	}
	defer ix.Release()
	var s sumSink
	sp = tr.start("core.queryset")
	st, err := h.sets[ds].RunIndexedSink(ix, &s)
	tr.end(sp, st.InputBytes, st.Matches)
	if err != nil {
		return fmt.Errorf("%s query set: %w", ds, err)
	}
	if want := h.refs[v][ds]; s.got != want {
		return fmt.Errorf("%s query set: %d matches (checksum %x), reference has %d (checksum %x)", ds, s.got.count, s.got.sum, want.count, want.sum)
	}
	for _, lk := range h.lookups[v][ds] {
		sp = tr.start("nav.lookup")
		err := lk.check(ix)
		tr.end(sp, 0, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", ds, err)
		}
	}
	return nil
}
