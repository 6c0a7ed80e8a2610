// Command jsonski evaluates a JSONPath expression over a JSON file in a
// single streaming pass, printing each match on its own line.
//
// Usage:
//
//	jsonski -q '$.place.name' file.json
//	cat file.json | jsonski -q '$[*].text' -count -stats
//	jsonski -q '$.store.book[2].title' -explain file.json
//
// With -records the input is treated as newline-delimited JSON (one
// record per line), streamed rather than slurped, and -workers enables
// parallel record processing (matches still print in record order);
// -stats then includes per-record latency quantiles. With -explain (single-document input only) the fast-forward
// movements are dumped to stderr: which function skipped which byte
// range, charged to which paper group, in which automaton state.
// Malformed input exits non-zero with the offending record named;
// Ctrl-C cancels cleanly between records.
//
// -save-index persists the input's structural index (document bytes,
// bitmaps, and — with -records — the per-record table) as a checksummed
// sidecar after evaluating; -load-index evaluates against such a
// sidecar instead of an input file, memory-mapping the prebuilt masks:
//
//	jsonski -q '$.a' -save-index file.jski file.json
//	jsonski -q '$.b' -load-index file.jski
//	jsonski -q '$.v' -records -save-index corpus.jski corpus.ndjson
//	jsonski -q '$.v' -records -load-index corpus.jski
//
// -get navigates a single document on demand instead of compiling a
// query: a dot path like 'store.book[2].title' hops straight to one
// value with the same fast-forward movements, printing its raw span.
// It composes with -stats, -explain, and -load-index:
//
//	jsonski -get 'store.book[2].title' file.json
//	jsonski -get 'store.book[2].title' -explain -load-index file.jski
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"jsonski"
	"jsonski/internal/telemetry"
)

func main() {
	var (
		query   = flag.String("q", "", "JSONPath query, e.g. '$.store.book[0:2].title'")
		get     = flag.String("get", "", "on-demand dot path, e.g. 'store.book[2].title' (single document; instead of -q)")
		count   = flag.Bool("count", false, "print only the number of matches")
		stats   = flag.Bool("stats", false, "print fast-forward statistics to stderr")
		records = flag.Bool("records", false, "input is newline-delimited JSON records")
		workers = flag.Int("workers", 1, "parallel workers for -records (0 = GOMAXPROCS)")
		explain = flag.Bool("explain", false, "dump the fast-forward movement trace to stderr (single document only)")
		saveIx  = flag.String("save-index", "", "persist the input's structural index to this sidecar file after evaluating")
		loadIx  = flag.String("load-index", "", "evaluate against a sidecar written by -save-index instead of an input file")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("jsonski", telemetry.BuildInfo().Version())
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *query, *get, *count, *stats, *records, *workers, *explain, *saveIx, *loadIx, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "jsonski:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, query, get string, countOnly, showStats, records bool, workers int, explain bool, saveIx, loadIx string, args []string) error {
	if get != "" {
		if query != "" {
			return fmt.Errorf("-q and -get are mutually exclusive")
		}
		if records {
			return fmt.Errorf("-get navigates a single document; drop -records")
		}
		if saveIx != "" {
			return fmt.Errorf("-get does not persist indexes; use -q with -save-index first, then -get with -load-index")
		}
		return runGet(ctx, get, showStats, explain, loadIx, args)
	}
	if query == "" {
		return fmt.Errorf("missing -q query (or -get path)")
	}
	if explain && records {
		return fmt.Errorf("-explain applies to single documents; drop -records or explain one record at a time")
	}
	if explain && (saveIx != "" || loadIx != "") {
		return fmt.Errorf("-explain traces a direct evaluation; drop -save-index/-load-index")
	}
	if saveIx != "" && loadIx != "" {
		return fmt.Errorf("-save-index and -load-index are mutually exclusive")
	}
	if loadIx != "" && len(args) > 0 {
		return fmt.Errorf("-load-index evaluates the document embedded in the sidecar; drop the input file")
	}
	q, err := jsonski.Compile(query)
	if err != nil {
		return err
	}
	var in io.Reader
	switch len(args) {
	case 0:
		in = os.Stdin
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("expected at most one input file, got %d", len(args))
	}

	out := bufio.NewWriter(os.Stdout)
	// Matched values stream from the input buffer straight to stdout, in
	// record order whatever the worker count.
	var sink jsonski.Sink
	if !countOnly {
		sink = jsonski.NewStreamSink(out)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts := []jsonski.Option{jsonski.Workers(workers)}
	if explain {
		opts = append(opts, jsonski.Explain(0))
	}

	start := time.Now()
	input, release, err := openInput(ctx, in, records, saveIx, loadIx)
	if err != nil {
		return err
	}
	defer release()
	st, err := q.Run(ctx, input, sink, opts...)
	elapsed := time.Since(start)
	if err != nil {
		// Matches already streamed stay on stdout; flush them so the
		// partial output is usable, then fail loudly.
		out.Flush()
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted after %d matches", st.Matches)
		}
		return fmt.Errorf("query failed: %w", err)
	}
	if countOnly {
		fmt.Fprintln(out, st.Matches)
	}
	if tr := st.Trace(); tr != nil {
		tr.Dump(os.Stderr)
	}
	if showStats {
		printStats(st, elapsed)
	}
	if err := out.Flush(); err != nil {
		return fmt.Errorf("writing output: %w", err)
	}
	return nil
}

// openInput turns the command's input into what the query runs over:
// with -records a line stream (streamed rather than slurped, so memory
// stays bounded by the largest record), otherwise the whole document.
// -load-index reads a sidecar's document instead, and -save-index
// indexes the input and persists the index first; either then runs
// through the index, one window per record when the sidecar has a
// record table and -records is set. release frees the index.
func openInput(ctx context.Context, in io.Reader, records bool, saveIx, loadIx string) (jsonski.Input, func(), error) {
	none := func() {}
	if records && saveIx == "" && loadIx == "" {
		return jsonski.Reader(in), none, nil
	}
	var (
		ix    *jsonski.Index
		spans []jsonski.Span
		err   error
	)
	if loadIx != "" {
		if ix, spans, err = jsonski.LoadIndex(loadIx); err != nil {
			return jsonski.Input{}, none, err
		}
	} else {
		data, err := io.ReadAll(bufio.NewReader(in))
		if err != nil {
			return jsonski.Input{}, none, fmt.Errorf("reading input: %w", err)
		}
		if saveIx == "" {
			return jsonski.Bytes(data), none, nil
		}
		if err := ctx.Err(); err != nil {
			return jsonski.Input{}, none, err
		}
		if records {
			spans = jsonski.RecordSpans(data)
		}
		ix = jsonski.BuildIndex(data)
		if err := jsonski.SaveIndex(saveIx, ix, spans); err != nil {
			ix.Release()
			return jsonski.Input{}, none, fmt.Errorf("saving index: %w", err)
		}
	}
	if records && len(spans) > 0 {
		return jsonski.Windows(ix, spans), ix.Release, nil
	}
	return jsonski.Indexed(ix), ix.Release, nil
}

// printStats renders the fast-forward accounting block to stderr, shared
// by the query and -get paths.
func printStats(st jsonski.Stats, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "matches: %d\n", st.Matches)
	fmt.Fprintf(os.Stderr, "input: %d bytes in %v (%.0f MB/s)\n",
		st.InputBytes, elapsed, float64(st.InputBytes)/elapsed.Seconds()/1e6)
	fmt.Fprintf(os.Stderr, "fast-forwarded: %.2f%% of input\n", st.FastForwardRatio()*100)
	for g := 0; g < 5; g++ {
		fmt.Fprintf(os.Stderr, "  G%d: %6.2f%%  (%d bytes)\n", g+1, st.GroupRatio(g)*100, st.SkippedBytes[g])
	}
	scanned := st.ScannedBytes()
	skipped := st.InputBytes - scanned
	skipRatio := 0.0
	if st.InputBytes > 0 {
		skipRatio = float64(skipped) / float64(st.InputBytes)
	}
	fmt.Fprintf(os.Stderr, "scanned: %d bytes, skip ratio %.4f\n", scanned, skipRatio)
	if lat := st.Latency(); lat != nil {
		fmt.Fprintf(os.Stderr, "record latency: p50 %v  p90 %v  p99 %v  max %v (%d records)\n",
			lat.P50(), lat.P90(), lat.P99(), lat.Max(), lat.Count)
	}
}

// runGet evaluates an on-demand dot path over a single document: the
// lazy Document API hops straight to the target with the same
// fast-forward movements a compiled query would use, so the rest of the
// record is skipped, never parsed.
func runGet(ctx context.Context, path string, showStats, explain bool, loadIx string, args []string) error {
	segs, err := jsonski.ParseDotPath(path)
	if err != nil {
		return err
	}
	var doc *jsonski.Document
	start := time.Now()
	if loadIx != "" {
		if len(args) > 0 {
			return fmt.Errorf("-load-index evaluates the document embedded in the sidecar; drop the input file")
		}
		ix, _, err := jsonski.LoadIndex(loadIx)
		if err != nil {
			return err
		}
		defer ix.Release()
		doc = jsonski.OpenIndexed(ix)
	} else {
		var in io.Reader = os.Stdin
		if len(args) == 1 {
			f, err := os.Open(args[0])
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		} else if len(args) > 1 {
			return fmt.Errorf("expected at most one input file, got %d", len(args))
		}
		data, err := io.ReadAll(bufio.NewReader(in))
		if err != nil {
			return fmt.Errorf("reading input: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		doc = jsonski.Open(data)
	}
	if explain {
		doc.Explain(0)
	}
	raw, err := doc.Lookup(segs...).Raw()
	if err != nil {
		return fmt.Errorf("get %s: %w", path, err)
	}
	if err := doc.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	os.Stdout.Write(raw)
	os.Stdout.Write([]byte{'\n'})
	st := doc.Stats()
	if tr := st.Trace(); tr != nil {
		tr.Dump(os.Stderr)
	}
	if showStats {
		printStats(st, elapsed)
	}
	return nil
}
