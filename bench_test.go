package jsonski_test

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5). One Benchmark function per experiment:
//
//	BenchmarkFig10  — total time on a single large record, 12 queries ×
//	                  {JSONSki, JPStream-, RapidJSON-, simdjson-,
//	                  Pison-class} (+ the JPStream-/Pison-class
//	                  speculative parallel modes; JSONSki is serial)
//	BenchmarkFig11  — sequential time on a series of small records
//	BenchmarkFig12  — parallel time on small records (worker pool)
//	BenchmarkFig13  — memory footprint of each method's preprocessing
//	BenchmarkFig14  — scalability with input size (BB1)
//	BenchmarkTable6 — fast-forward ratios by function group
//	BenchmarkAblation* — DESIGN.md's ablations (no fast-forward;
//	                  scalar skipping; per-group contribution)
//
// Dataset size defaults to 2 MiB per dataset so `go test -bench .`
// finishes quickly; set JSONSKI_BENCH_BYTES to scale up (the paper uses
// 1 GiB). Shapes, not absolute numbers, are the reproduction target.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"jsonski"
	"jsonski/internal/automaton"
	"jsonski/internal/baseline/charstream"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/baseline/index"
	"jsonski/internal/baseline/tape"
	"jsonski/internal/core"
	"jsonski/internal/gen"
	"jsonski/internal/jsonpath"
	"jsonski/internal/queries"
)

func benchBytes() int {
	if v := os.Getenv("JSONSKI_BENCH_BYTES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 2 << 20
}

var (
	benchMu    sync.Mutex
	largeCache = map[string][]byte{}
	smallCache = map[string][][]byte{}
)

func largeData(b *testing.B, dataset string) []byte {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%d", dataset, benchBytes())
	if d, ok := largeCache[key]; ok {
		return d
	}
	d, err := gen.Generate(dataset, benchBytes(), 42)
	if err != nil {
		b.Fatal(err)
	}
	largeCache[key] = d
	return d
}

func smallData(b *testing.B, dataset string) [][]byte {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%d", dataset, benchBytes())
	if d, ok := smallCache[key]; ok {
		return d
	}
	d, err := gen.GenerateRecords(dataset, benchBytes(), 42)
	if err != nil {
		b.Fatal(err)
	}
	smallCache[key] = d
	return d
}

// serialMethods enumerates the five methods of Table 2 for one-record
// evaluation. Each compiles once and returns a per-buffer closure so
// compilation never pollutes per-record timings.
type serialMethod struct {
	name    string
	compile func(b *testing.B, query string) func(data []byte) int64
}

func serialMethods() []serialMethod {
	fatal := func(b *testing.B, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	return []serialMethod{
		{"JSONSki", func(b *testing.B, q string) func([]byte) int64 {
			cq := jsonski.MustCompile(q)
			return func(data []byte) int64 {
				n, err := cq.Count(data)
				fatal(b, err)
				return n
			}
		}},
		{"JPStream", func(b *testing.B, q string) func([]byte) int64 {
			ev, err := charstream.Compile(q)
			fatal(b, err)
			return func(data []byte) int64 {
				n, err := ev.Count(data)
				fatal(b, err)
				return n
			}
		}},
		{"RapidJSON", func(b *testing.B, q string) func([]byte) int64 {
			ev, err := domparser.Compile(q)
			fatal(b, err)
			return func(data []byte) int64 {
				n, err := ev.Count(data)
				fatal(b, err)
				return n
			}
		}},
		{"simdjson", func(b *testing.B, q string) func([]byte) int64 {
			ev, err := tape.Compile(q)
			fatal(b, err)
			return func(data []byte) int64 {
				n, err := ev.Count(data)
				fatal(b, err)
				return n
			}
		}},
		{"Pison", func(b *testing.B, q string) func([]byte) int64 {
			ev, err := index.Compile(q)
			fatal(b, err)
			return func(data []byte) int64 {
				n, err := ev.Count(data)
				fatal(b, err)
				return n
			}
		}},
	}
}

// BenchmarkFig10 regenerates Figure 10: total execution time on a single
// large record per dataset, serial for all methods, plus the speculative
// parallel modes of the JPStream- and Pison-class baselines. JSONSki has
// no parallel mode for one record; as in the paper, it runs serially.
func BenchmarkFig10(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, q := range queries.All {
		data := largeData(b, q.Dataset)
		for _, m := range serialMethods() {
			b.Run(q.ID+"/"+m.name, func(b *testing.B) {
				run := m.compile(b, q.Large)
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(data)
				}
			})
		}
		b.Run(fmt.Sprintf("%s/JPStream-par%d", q.ID, workers), func(b *testing.B) {
			ev, _ := charstream.Compile(q.Large)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ev.ParallelCount(data, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/Pison-par%d", q.ID, workers), func(b *testing.B) {
			ev, _ := index.Compile(q.Large)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				ix, err := index.ParallelBuild(data, ev.Levels(), workers)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ev.RunIndex(ix, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11 regenerates Figure 11: sequential evaluation over a
// series of small records (single thread). NSPL1 and WP2 are excluded,
// as in the paper.
func BenchmarkFig11(b *testing.B) {
	for _, q := range queries.All {
		if q.Small == "" {
			continue
		}
		recs := smallData(b, q.Dataset)
		var total int64
		for _, r := range recs {
			total += int64(len(r))
		}
		for _, m := range serialMethods() {
			b.Run(q.ID+"/"+m.name, func(b *testing.B) {
				run := m.compile(b, q.Small)
				b.SetBytes(total)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, rec := range recs {
						run(rec)
					}
				}
			})
		}
	}
}

// BenchmarkFig12 regenerates Figure 12: small records processed by a
// worker pool with one record per task (GOMAXPROCS workers). The paper
// compares the three methods that parallelize this way.
func BenchmarkFig12(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, q := range queries.All {
		if q.Small == "" {
			continue
		}
		recs := smallData(b, q.Dataset)
		var total int64
		for _, r := range recs {
			total += int64(len(r))
		}
		b.Run(q.ID+"/JSONSki", func(b *testing.B) {
			cq := jsonski.MustCompile(q.Small)
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				if _, err := cq.Run(context.Background(), jsonski.Records(recs), nil, jsonski.Workers(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/JPStream", func(b *testing.B) {
			ev, _ := charstream.Compile(q.Small)
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				poolRun(recs, workers, func(rec []byte) error {
					_, err := ev.Count(rec)
					return err
				})
			}
		})
		b.Run(q.ID+"/Pison", func(b *testing.B) {
			ev, _ := index.Compile(q.Small)
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				poolRun(recs, workers, func(rec []byte) error {
					_, err := ev.Count(rec)
					return err
				})
			}
		})
	}
}

// poolRun distributes records over a worker pool.
func poolRun(recs [][]byte, workers int, fn func([]byte) error) {
	var wg sync.WaitGroup
	ch := make(chan []byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range ch {
				if err := fn(rec); err != nil {
					panic(err)
				}
			}
		}()
	}
	for _, rec := range recs {
		ch <- rec
	}
	close(ch)
	wg.Wait()
}

// BenchmarkFig13 regenerates Figure 13: the memory footprint each method
// pins beyond the input buffer while processing a large record. The
// "xinput" metric is footprint / input-size; alloc counters come from
// -benchmem.
func BenchmarkFig13(b *testing.B) {
	q, _ := queries.ByID("BB1")
	data := largeData(b, q.Dataset)
	n := float64(len(data))

	b.Run("JSONSki", func(b *testing.B) {
		cq := jsonski.MustCompile(q.Large)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cq.Count(data); err != nil {
				b.Fatal(err)
			}
		}
		// streaming state: cursor + word masks only
		b.ReportMetric(0, "xinput")
	})
	b.Run("JPStream", func(b *testing.B) {
		ev, _ := charstream.Compile(q.Large)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Count(data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(0, "xinput")
	})
	b.Run("RapidJSON", func(b *testing.B) {
		ev, _ := domparser.Compile(q.Large)
		b.ReportAllocs()
		var foot int64
		for i := 0; i < b.N; i++ {
			root, err := domparser.Parse(data)
			if err != nil {
				b.Fatal(err)
			}
			foot = root.FootprintBytes()
			if _, err := ev.Run(data, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(foot)/n, "xinput")
	})
	b.Run("simdjson", func(b *testing.B) {
		ev, _ := tape.Compile(q.Large)
		b.ReportAllocs()
		var foot int64
		for i := 0; i < b.N; i++ {
			tp, err := tape.Preprocess(data)
			if err != nil {
				b.Fatal(err)
			}
			foot = tp.FootprintBytes()
			if _, err := ev.RunTape(tp, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(foot)/n, "xinput")
	})
	b.Run("Pison", func(b *testing.B) {
		ev, _ := index.Compile(q.Large)
		b.ReportAllocs()
		var foot int64
		for i := 0; i < b.N; i++ {
			ix, err := index.Build(data, ev.Levels())
			if err != nil {
				b.Fatal(err)
			}
			foot = ix.FootprintBytes()
			if _, err := ev.RunIndex(ix, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(foot)/n, "xinput")
	})
}

// BenchmarkFig14 regenerates Figure 14: BB1 execution time as the record
// grows. Sizes scale from benchBytes()/4 upward by powers of two.
func BenchmarkFig14(b *testing.B) {
	q, _ := queries.ByID("BB1")
	base := benchBytes() / 4
	if base < 1<<18 {
		base = 1 << 18
	}
	for _, mult := range []int{1, 2, 4, 8} {
		size := base * mult
		data, err := gen.Generate(q.Dataset, size, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range serialMethods() {
			b.Run(fmt.Sprintf("%dKB/%s", size>>10, m.name), func(b *testing.B) {
				run := m.compile(b, q.Large)
				b.SetBytes(int64(len(data)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(data)
				}
			})
		}
	}
}

// BenchmarkTable6 regenerates Table 6: the per-group fast-forward ratios
// for each query on its large record, reported as benchmark metrics
// (G1..G5 and overall, in percent).
func BenchmarkTable6(b *testing.B) {
	for _, q := range queries.All {
		data := largeData(b, q.Dataset)
		b.Run(q.ID, func(b *testing.B) {
			p := jsonpath.MustParse(q.Large)
			e := core.NewEngine(automaton.New(p))
			var st core.Stats
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var err error
				st, err = e.Run(data, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			per := st.GroupRatios()
			for g, r := range per {
				b.ReportMetric(r*100, fmt.Sprintf("G%d%%", g+1))
			}
			b.ReportMetric(st.FastForwardRatio()*100, "overall%")
		})
	}
}

// BenchmarkAblationNoFastForward compares the full engine against plain
// recursive-descent streaming (Algorithm 1, fast-forward disabled),
// isolating §3.2's contribution.
func BenchmarkAblationNoFastForward(b *testing.B) {
	for _, q := range queries.All {
		data := largeData(b, q.Dataset)
		p := jsonpath.MustParse(q.Large)
		b.Run(q.ID+"/full", func(b *testing.B) {
			e := core.NewEngine(automaton.New(p))
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/no-ff", func(b *testing.B) {
			e := core.NewEngine(automaton.New(p))
			e.DisableFastForward = true
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScalarSkip compares bit-parallel skipping against the
// same skip decisions executed byte by byte, isolating §4's contribution.
func BenchmarkAblationScalarSkip(b *testing.B) {
	for _, q := range queries.All {
		data := largeData(b, q.Dataset)
		p := jsonpath.MustParse(q.Large)
		b.Run(q.ID+"/bit-parallel", func(b *testing.B) {
			e := core.NewEngine(automaton.New(p))
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/scalar-skip", func(b *testing.B) {
			e := core.NewScalarEngine(automaton.New(p))
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGroups disables one fast-forward group at a time,
// showing the uneven per-group contributions that Table 6 reports as
// skip ratios. Queries are picked for their dominant group.
func BenchmarkAblationGroups(b *testing.B) {
	cases := []struct {
		qid   string
		group int // dominant group to disable (1-based)
	}{
		{"TT1", 1},   // G1-heavy: type-filtered attribute skipping
		{"NSPL1", 4}, // G4-heavy: object-remainder skipping
		{"WP2", 5},   // G5-heavy: out-of-range element skipping
		{"BB1", 5},
	}
	for _, c := range cases {
		q, err := queries.ByID(c.qid)
		if err != nil {
			b.Fatal(err)
		}
		data := largeData(b, q.Dataset)
		p := jsonpath.MustParse(q.Large)
		b.Run(fmt.Sprintf("%s/all-groups", c.qid), func(b *testing.B) {
			e := core.NewEngine(automaton.New(p))
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/no-G%d", c.qid, c.group), func(b *testing.B) {
			e := core.NewEngine(automaton.New(p))
			e.DisabledGroups = 1 << (c.group - 1)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(data, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQuerySet compares a QuerySet over raw bytes against running
// its member queries back to back. The set runs each member as its own
// lazy pass, so the two should tie; the gap is the set's dispatch cost.
func BenchmarkQuerySet(b *testing.B) {
	data := largeData(b, "tt")
	exprs := []string{"$[*].text", "$[*].user.id", "$[*].lang"}
	b.Run("queryset", func(b *testing.B) {
		qs := jsonski.MustCompileSet(exprs...)
		b.SetBytes(int64(len(data)) * int64(len(exprs)))
		for i := 0; i < b.N; i++ {
			if _, err := qs.Run(context.Background(), jsonski.Bytes(data), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		qs := make([]*jsonski.Query, len(exprs))
		for i, e := range exprs {
			qs[i] = jsonski.MustCompile(e)
		}
		b.SetBytes(int64(len(data)) * int64(len(exprs)))
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := q.Count(data); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkQuerySetPaperSets runs each dataset's Table 5 large-record
// queries as one QuerySet over a prebuilt 512 KiB index into a counting
// sink — the read path of a warmed sidecar catalog. allocs/op must stay
// a small constant per member, whatever the document's container count.
func BenchmarkQuerySetPaperSets(b *testing.B) {
	for _, ds := range gen.Names {
		data, err := gen.Generate(ds, 512<<10, 1)
		if err != nil {
			b.Fatal(err)
		}
		var exprs []string
		for _, q := range queries.ForDataset(ds) {
			exprs = append(exprs, q.Large)
		}
		qs := jsonski.MustCompileSet(exprs...)
		b.Run(ds, func(b *testing.B) {
			ix := jsonski.BuildIndex(data)
			defer ix.Release()
			var sink jsonski.CountSink
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := qs.Run(context.Background(), jsonski.Indexed(ix), &sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiQuery measures the structural-index stage amortized
// across several queries over one buffer: each lazy pass re-classifies
// every word (at minimum folding quote masks through the string carry),
// while the indexed passes share one upfront build.
func BenchmarkMultiQuery(b *testing.B) {
	data := largeData(b, "tt")
	exprs := []string{"$[*].text", "$[*].user.id", "$[*].lang", "$[*].en.urls[*].url"}
	compiled := make([]*jsonski.Query, len(exprs))
	for i, e := range exprs {
		compiled[i] = jsonski.MustCompile(e)
	}
	bytesAll := int64(len(data)) * int64(len(exprs))

	b.Run("lazy", func(b *testing.B) {
		b.SetBytes(bytesAll)
		for i := 0; i < b.N; i++ {
			for _, q := range compiled {
				if _, err := q.Count(data); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		b.SetBytes(bytesAll)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix := jsonski.BuildIndex(data) // build counted: once per N queries
			for _, q := range compiled {
				if _, err := q.Run(context.Background(), jsonski.Indexed(ix), nil); err != nil {
					b.Fatal(err)
				}
			}
			ix.Release()
		}
	})
	b.Run("queryset-indexed", func(b *testing.B) {
		qs := jsonski.MustCompileSet(exprs...)
		b.SetBytes(bytesAll)
		for i := 0; i < b.N; i++ {
			ix := jsonski.BuildIndex(data)
			if _, err := qs.Run(context.Background(), jsonski.Indexed(ix), nil); err != nil {
				b.Fatal(err)
			}
			ix.Release()
		}
	})
}

// BenchmarkRepeatedDocument measures the hot-document scenario behind
// the server's index cache: the same buffer queried again and again.
// lazy re-runs the word pipeline every time; indexed streams over a
// prebuilt index; cached adds the IndexCache's hash + lookup on top.
func BenchmarkRepeatedDocument(b *testing.B) {
	data := largeData(b, "bb")
	q := jsonski.MustCompile("$.pd[*].cp[1:3].id")

	b.Run("lazy", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := q.Count(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		ix := jsonski.BuildIndex(data)
		defer ix.Release()
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.Run(context.Background(), jsonski.Indexed(ix), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("index-cache", func(b *testing.B) {
		ic := jsonski.NewIndexCache(0)
		ic.Get(data).Release() // warm: every timed Get is a hit
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix := ic.Get(data)
			if _, err := q.Run(context.Background(), jsonski.Indexed(ix), nil); err != nil {
				b.Fatal(err)
			}
			ix.Release()
		}
	})
	b.Run("index-build", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			jsonski.BuildIndex(data).Release()
		}
	})
}

// BenchmarkDescendant measures the NFA engine (descendant paths, no
// type-based fast-forwarding) against an equivalent linear path on the
// DFA engine, quantifying what the paper's exclusion of ".." buys.
func BenchmarkDescendant(b *testing.B) {
	data := largeData(b, "gmd")
	b.Run("linear-dfa", func(b *testing.B) {
		q := jsonski.MustCompile("$[*].rt[*].lg[*].st[*].dt.tx")
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := q.Count(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("descendant-nfa", func(b *testing.B) {
		q := jsonski.MustCompile("$..tx")
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := q.Count(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunLarge is the benchmark-guard target: the plain disabled-
// telemetry hot path over one large record (TT1-class query). The CI
// bench-guard job compares this benchmark between the base and head
// commits on the same runner and fails the build if the disabled path
// regresses more than 2% — the explain/trace plumbing must stay a
// single nil check when off.
func BenchmarkRunLarge(b *testing.B) {
	q, _ := queries.ByID("TT1")
	data := largeData(b, q.Dataset)
	cq := jsonski.MustCompile(q.Large)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Count(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLargeSinkBuffered and BenchmarkRunLargeSinkStream compare
// the two output modes on the bench-guard workload with allocation
// accounting: the buffered mode copies every matched value out of the
// input, the streaming mode writes spans straight from the input buffer
// to a writer and must stay allocation-free per match. The stream
// variant is a bench-guard target alongside BenchmarkRunLarge (see
// scripts/benchguard.sh).
func BenchmarkRunLargeSinkBuffered(b *testing.B) {
	q, _ := queries.ByID("TT1")
	data := largeData(b, q.Dataset)
	cq := jsonski.MustCompile(q.Large)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink jsonski.BufferSink
	for i := 0; i < b.N; i++ {
		sink.Reset()
		if _, err := cq.Run(context.Background(), jsonski.Bytes(data), &sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLargeSinkStream(b *testing.B) {
	q, _ := queries.ByID("TT1")
	data := largeData(b, q.Dataset)
	cq := jsonski.MustCompile(q.Large)
	sink := jsonski.NewStreamSink(io.Discard)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Run(context.Background(), jsonski.Bytes(data), sink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunLargeExplain is the same workload with the trace enabled,
// quantifying the cost of explain mode (bounded by the event cap, so it
// amortizes to near-zero on large inputs once the cap fills).
func BenchmarkRunLargeExplain(b *testing.B) {
	q, _ := queries.ByID("TT1")
	data := largeData(b, q.Dataset)
	cq := jsonski.MustCompile(q.Large)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Run(context.Background(), jsonski.Bytes(data), nil, jsonski.Explain(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFilterSkip is the guarded hot path for RFC 9535 filters
// under the skip-eligible probe plan: every embedded query is a
// relative singular child chain, so candidates are probed by mini
// child-chain DFA runs, never fully parsed. ~10% of WM items pass the
// predicate (salePrice is uniform in [0,800)).
func BenchmarkRunFilterSkip(b *testing.B) {
	data := largeData(b, "wm")
	cq := jsonski.MustCompile("$.it[?@.salePrice < 80].itemId")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Count(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFilterFullParse is the same predicate and selectivity
// forced onto the full-parse plan: the `@.stock.*` conjunct is always
// true, but its wildcard disqualifies the chain-probe plan, so each
// candidate span is DOM-parsed. The gap to BenchmarkRunFilterSkip is
// what the planner buys (DESIGN §5f).
func BenchmarkRunFilterFullParse(b *testing.B) {
	data := largeData(b, "wm")
	cq := jsonski.MustCompile("$.it[?@.salePrice < 80 && @.stock.*].itemId")
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cq.Count(data); err != nil {
			b.Fatal(err)
		}
	}
}

// ondemandBenchDoc builds the fixture for the on-demand navigation
// benchmarks: a wide header object, `n` sibling item objects, and a
// trailing payload, so a single-field lookup has realistic clutter to
// fast-forward over on both sides of the target.
func ondemandBenchDoc(n int) []byte {
	var buf []byte
	buf = append(buf, `{"header": {"version": 3, "source": "bench", "flags": [true, false, true]}, "items": [`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = append(buf, fmt.Sprintf(
			`{"sku": "SKU-%04d", "qty": %d, "price": %d.%02d, "tags": ["a", "b"], "desc": "item number %d with some padding text"}`,
			i, i%17, i*3+1, i%100, i)...)
	}
	buf = append(buf, `], "trailer": {"checksum": "0123456789abcdef", "pad": "`...)
	for i := 0; i < 64; i++ {
		buf = append(buf, "xxxxxxxx"...)
	}
	buf = append(buf, `"}}`...)
	return buf
}

// BenchmarkOnDemandGet is a bench-guard target (scripts/benchguard.sh,
// +2%): one lazy single-field lookup per iteration over a prebuilt
// structural index, reusing the Document across records the way
// jsonskid's /doc endpoint does. Steady state must stay allocation-free
// on the hop path (TestOnDemandGetAllocs pins the <=2 allocs/op
// budget; ReportAllocs here makes drift visible in bench output too).
func BenchmarkOnDemandGet(b *testing.B) {
	data := ondemandBenchDoc(256)
	ix := jsonski.BuildIndex(data)
	d := jsonski.OpenIndexed(ix)
	// Warm up once: frame-stack growth happens on the first pass.
	if _, err := d.Lookup("items", "200", "qty").Raw(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ResetIndexed(ix)
		raw, err := d.Lookup("items", "200", "qty").Raw()
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		_ = raw
	}
}

// BenchmarkOnDemandUnmarshal measures the escape hatch from lazy
// navigation into encoding/json: hop to one item object, then decode
// just that span into a struct. The hops are still G1-G5 movements;
// only the target span pays DOM-decode cost.
func BenchmarkOnDemandUnmarshal(b *testing.B) {
	type item struct {
		SKU   string   `json:"sku"`
		Qty   int      `json:"qty"`
		Price float64  `json:"price"`
		Tags  []string `json:"tags"`
	}
	data := ondemandBenchDoc(256)
	ix := jsonski.BuildIndex(data)
	d := jsonski.OpenIndexed(ix)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ResetIndexed(ix)
		var it item
		if err := d.Lookup("items", "200").Unmarshal(&it); err != nil {
			b.Fatal(err)
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
		if it.Qty != 200%17 {
			b.Fatalf("qty = %d", it.Qty)
		}
	}
}
