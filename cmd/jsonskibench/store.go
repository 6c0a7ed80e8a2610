package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jsonski"
	"jsonski/internal/gen"
	"jsonski/internal/queries"
)

// storeQueryResult is one row of the persistent-store benchmark: the
// full index lifecycle for one paper query's large record.
type storeQueryResult struct {
	ID       string `json:"id"`
	Dataset  string `json:"dataset"`
	DocBytes int    `json:"doc_bytes"`

	BuildNS   int64   `json:"build_ns"`
	BuildMBs  float64 `json:"build_mb_s"`
	SaveNS    int64   `json:"save_ns"`
	SaveMBs   float64 `json:"save_mb_s"`
	LoadNS    int64   `json:"load_ns"`
	LoadMBs   float64 `json:"load_mb_s"`
	FileBytes int64   `json:"sidecar_bytes"`

	ICacheHitNS  int64   `json:"query_icache_hit_ns"`
	CatalogHitNS int64   `json:"query_catalog_hit_ns"`
	CatalogPct   float64 `json:"catalog_overhead_pct"`

	RebuildStartNS int64   `json:"rebuild_start_ns"`
	ColdStartNS    int64   `json:"cold_start_ns"`
	ColdSpeedup    float64 `json:"cold_speedup"`
}

// storeCorpusResult measures the NDJSON path: one serialized corpus
// index shared by every record, each record queried through its window.
type storeCorpusResult struct {
	Dataset     string  `json:"dataset"`
	CorpusBytes int     `json:"corpus_bytes"`
	Records     int     `json:"records"`
	BuildNS     int64   `json:"build_ns"`
	SaveNS      int64   `json:"save_ns"`
	LoadNS      int64   `json:"load_ns"`
	LoadMBs     float64 `json:"load_mb_s"`
	WindowNS    int64   `json:"window_query_ns"` // mean per record, mapped masks

	// Start-to-answers over the whole corpus: rebuild masks + re-split
	// records versus map the sidecar, then sweep every record window.
	RebuildStartNS int64   `json:"rebuild_start_ns"`
	ColdStartNS    int64   `json:"cold_start_ns"`
	ColdSpeedup    float64 `json:"cold_speedup"`
}

// storeSummary aggregates the acceptance signals: catalog-hit overhead
// over the summed per-query hit latencies (single-row deltas at small
// sizes are timer noise), and the corpus cold-start speedup.
type storeSummary struct {
	ICacheHitTotalNS   int64   `json:"icache_hit_total_ns"`
	CatalogHitTotalNS  int64   `json:"catalog_hit_total_ns"`
	CatalogOverheadPct float64 `json:"catalog_overhead_pct"`
	CorpusColdSpeedup  float64 `json:"corpus_cold_speedup"`
	CatalogWithin10Pct bool    `json:"catalog_within_10pct"`
	ColdSpeedupGE15    bool    `json:"cold_speedup_ge_1.5x"`
}

type storeReport struct {
	Bench      string             `json:"bench"`
	Schema     int                `json:"schema_version"`
	SizeBytes  int                `json:"size_bytes"`
	GoMaxProcs int                `json:"go_max_procs"`
	GoVersion  string             `json:"go_version"`
	Queries    []storeQueryResult `json:"queries"`
	Corpus     storeCorpusResult  `json:"corpus"`
	Summary    storeSummary       `json:"summary"`
}

// store benchmarks the persistent index store: build/save/load
// throughput, warmed-catalog hit latency against the in-memory
// IndexCache hit, and cold start (load sidecar + first query) against
// rebuild (build masks + first query). With -json the same numbers are
// written as a machine-readable report (the BENCH_6.json trajectory).
func (h *harness) store(jsonOut string) {
	fmt.Printf("\n== Persistent index store: build/save/load and warm vs cold (input %s/dataset) ==\n", fmtBytes(h.size))
	fmt.Printf("%-6s | %10s %10s %10s | %10s %10s %7s | %10s %10s %7s\n",
		"query", "build", "save", "load", "icache-hit", "cat-hit", "ovh%",
		"rebuild", "cold", "speedup")

	dir, err := os.MkdirTemp("", "jsonskibench-store-*")
	must(err)
	defer os.RemoveAll(dir)

	rep := storeReport{
		Bench:      "store",
		Schema:     1,
		SizeBytes:  h.size,
		GoMaxProcs: h.workers,
		GoVersion:  runtime.Version(),
	}
	mbs := func(n int, d time.Duration) float64 {
		return float64(n) / d.Seconds() / 1e6
	}
	for _, q := range queries.All {
		data := h.large(q.Dataset)
		cq := jsonski.MustCompile(q.Large)
		side := filepath.Join(dir, q.ID+jsonski.IndexExt)

		tBuild := timeIt(func() { jsonski.BuildIndex(data).Release() })
		ix := jsonski.BuildIndex(data)
		tSave := timeIt(func() { must(jsonski.SaveIndex(side, ix, nil)) })
		ix.Release()
		st, err := os.Stat(side)
		must(err)
		tLoad := timeIt(func() {
			lx, _, err := jsonski.LoadIndex(side)
			must(err)
			lx.Release()
		})

		// Warm in-memory cache hit vs warm catalog hit: identical work
		// (hash, lookup, indexed run) over pooled vs mapped masks. The
		// two sides are interleaved and each takes its best of three
		// rounds, so a scheduler hiccup in one round cannot masquerade
		// as mapping overhead.
		ic := jsonski.NewIndexCache(0)
		ic.Get(data).Release()
		icacheHit := func() {
			cix := ic.Get(data)
			_, err := cq.Run(context.Background(), jsonski.Indexed(cix), nil)
			must(err)
			cix.Release()
		}
		cat, err := jsonski.OpenCatalog(filepath.Join(dir, "cat-"+q.ID), 0)
		must(err)
		pix, _, err := cat.Put(data, nil)
		must(err)
		pix.Release()
		catalogHit := func() {
			gix, _ := cat.Get(data)
			_, err := cq.Run(context.Background(), jsonski.Indexed(gix), nil)
			must(err)
			gix.Release()
		}
		var tICache, tCatalog time.Duration
		for round := 0; round < 3; round++ {
			if ti := timeIt(icacheHit); round == 0 || ti < tICache {
				tICache = ti
			}
			if tc := timeIt(catalogHit); round == 0 || tc < tCatalog {
				tCatalog = tc
			}
		}
		cat.Close()

		// Process start to first answer: rebuild masks vs map the sidecar.
		tRebuildStart := timeIt(func() {
			rix := jsonski.BuildIndex(data)
			_, err := cq.Run(context.Background(), jsonski.Indexed(rix), nil)
			must(err)
			rix.Release()
		})
		tColdStart := timeIt(func() {
			lx, _, err := jsonski.LoadIndex(side)
			must(err)
			_, err = cq.Run(context.Background(), jsonski.Indexed(lx), nil)
			must(err)
			lx.Release()
		})

		r := storeQueryResult{
			ID: q.ID, Dataset: q.Dataset, DocBytes: len(data),
			BuildNS: tBuild.Nanoseconds(), BuildMBs: mbs(len(data), tBuild),
			SaveNS: tSave.Nanoseconds(), SaveMBs: mbs(len(data), tSave),
			LoadNS: tLoad.Nanoseconds(), LoadMBs: mbs(len(data), tLoad),
			FileBytes:      st.Size(),
			ICacheHitNS:    tICache.Nanoseconds(),
			CatalogHitNS:   tCatalog.Nanoseconds(),
			CatalogPct:     float64(tCatalog-tICache) * 100 / float64(tICache),
			RebuildStartNS: tRebuildStart.Nanoseconds(),
			ColdStartNS:    tColdStart.Nanoseconds(),
			ColdSpeedup:    float64(tRebuildStart) / float64(tColdStart),
		}
		rep.Queries = append(rep.Queries, r)
		fmt.Printf("%-6s | %10v %10v %10v | %10v %10v %6.1f%% | %10v %10v %6.2fx\n",
			q.ID, tBuild, tSave, tLoad, tICache, tCatalog, r.CatalogPct,
			tRebuildStart, tColdStart, r.ColdSpeedup)
	}

	rep.Corpus = h.storeCorpus(dir)
	fmt.Printf("corpus %s: %d records, %s; load %v (%.0f MB/s), window query %v/record, cold start %.2fx over rebuild\n",
		rep.Corpus.Dataset, rep.Corpus.Records, fmtBytes(rep.Corpus.CorpusBytes),
		time.Duration(rep.Corpus.LoadNS), rep.Corpus.LoadMBs,
		time.Duration(rep.Corpus.WindowNS), rep.Corpus.ColdSpeedup)

	rep.Summary = summarize(rep.Queries, rep.Corpus)
	fmt.Printf("summary: catalog-hit overhead %+.1f%% (target <10%%), corpus cold-start speedup %.2fx (target >1.5x)\n",
		rep.Summary.CatalogOverheadPct, rep.Summary.CorpusColdSpeedup)

	if jsonOut != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		must(err)
		must(os.WriteFile(jsonOut, append(b, '\n'), 0o644))
		fmt.Printf("wrote %s\n", jsonOut)
	}
}

// storeCorpus serializes one NDJSON corpus index and queries every
// record through its span window against the mapped masks.
func (h *harness) storeCorpus(dir string) storeCorpusResult {
	const dataset = "tt"
	recs, err := gen.GenerateRecords(dataset, h.size, h.seed)
	must(err)
	var corpus []byte
	for _, r := range recs {
		corpus = append(corpus, r...)
		corpus = append(corpus, '\n')
	}
	spans := jsonski.RecordSpans(corpus)
	side := filepath.Join(dir, "corpus"+jsonski.IndexExt)

	tBuild := timeIt(func() { jsonski.BuildIndex(corpus).Release() })
	ix := jsonski.BuildIndex(corpus)
	tSave := timeIt(func() { must(jsonski.SaveIndex(side, ix, spans)) })
	ix.Release()
	tLoad := timeIt(func() {
		lx, _, err := jsonski.LoadIndex(side)
		must(err)
		lx.Release()
	})

	q, err := queries.ByID("TT1")
	must(err)
	if q.Small == "" {
		panic("store bench: TT1 small query missing")
	}
	cq := jsonski.MustCompile(q.Small)
	sweep := func(x *jsonski.Index, sp []jsonski.Span) {
		_, err := cq.Run(context.Background(), jsonski.Windows(x, sp), nil)
		must(err)
	}
	lx, lspans, err := jsonski.LoadIndex(side)
	must(err)
	tAll := timeIt(func() { sweep(lx, lspans) })
	lx.Release()

	tRebuildStart := timeIt(func() {
		rix := jsonski.BuildIndex(corpus)
		sweep(rix, jsonski.RecordSpans(corpus))
		rix.Release()
	})
	tColdStart := timeIt(func() {
		cx, csp, err := jsonski.LoadIndex(side)
		must(err)
		sweep(cx, csp)
		cx.Release()
	})

	return storeCorpusResult{
		Dataset:        dataset,
		CorpusBytes:    len(corpus),
		Records:        len(spans),
		BuildNS:        tBuild.Nanoseconds(),
		SaveNS:         tSave.Nanoseconds(),
		LoadNS:         tLoad.Nanoseconds(),
		LoadMBs:        float64(len(corpus)) / tLoad.Seconds() / 1e6,
		WindowNS:       (tAll / time.Duration(max(1, len(lspans)))).Nanoseconds(),
		RebuildStartNS: tRebuildStart.Nanoseconds(),
		ColdStartNS:    tColdStart.Nanoseconds(),
		ColdSpeedup:    float64(tRebuildStart) / float64(tColdStart),
	}
}

func summarize(rows []storeQueryResult, corpus storeCorpusResult) storeSummary {
	var s storeSummary
	for _, r := range rows {
		s.ICacheHitTotalNS += r.ICacheHitNS
		s.CatalogHitTotalNS += r.CatalogHitNS
	}
	if s.ICacheHitTotalNS > 0 {
		s.CatalogOverheadPct = float64(s.CatalogHitTotalNS-s.ICacheHitTotalNS) * 100 /
			float64(s.ICacheHitTotalNS)
	}
	s.CorpusColdSpeedup = corpus.ColdSpeedup
	s.CatalogWithin10Pct = s.CatalogOverheadPct < 10
	s.ColdSpeedupGE15 = s.CorpusColdSpeedup >= 1.5
	return s
}
