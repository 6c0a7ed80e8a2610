package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"jsonski"
	"jsonski/internal/queries"
	"jsonski/internal/telemetry"
)

// traceRow is one tracing mode of the overhead experiment: the same
// per-record evaluation loop under a given sampling configuration.
type traceRow struct {
	Mode        string  `json:"mode"` // baseline, off, sampled, always
	SampleRatio float64 `json:"sample_ratio"`
	NsPerRecord int64   `json:"ns_per_record"`
	MBs         float64 `json:"mb_s"`
	// OverheadPct is the slowdown relative to the baseline row (no span
	// calls at all); the "off" row's value is the disabled-tracing cost
	// the bench guard budgets at +2%.
	OverheadPct float64 `json:"overhead_pct"`

	SpansStarted  int64 `json:"spans_started"`
	SpansSampled  int64 `json:"spans_sampled"`
	SpansExported int64 `json:"spans_exported"`
	SpansDropped  int64 `json:"spans_dropped"`
}

// traceAccounting is the skip-efficiency cost attribution of one pass
// over the corpus: every input byte lands either in a Table 1 charge
// group or in the scanned total.
type traceAccounting struct {
	InputBytes   int64    `json:"input_bytes"`
	ScannedBytes int64    `json:"scanned_bytes"`
	FFBytes      [5]int64 `json:"ff_bytes"` // per group G1..G5
	SkipRatio    float64  `json:"skip_ratio"`
}

type traceSummary struct {
	DisabledOverheadPct float64 `json:"disabled_overhead_pct"`
	SampledOverheadPct  float64 `json:"sampled_overhead_pct"`
	AlwaysOverheadPct   float64 `json:"always_overhead_pct"`
	// BytesAccounted confirms the invariant scanned + sum(ff) ==
	// input on this corpus (ScannedBytes clamps, so a false value
	// would flag a charge-accounting bug).
	BytesAccounted bool `json:"bytes_accounted"`
}

type traceReport struct {
	Bench      string          `json:"bench"`
	Schema     int             `json:"schema_version"`
	SizeBytes  int             `json:"size_bytes"`
	GoMaxProcs int             `json:"go_max_procs"`
	GoVersion  string          `json:"go_version"`
	Dataset    string          `json:"dataset"`
	Query      string          `json:"query"`
	Records    int             `json:"records"`
	Rows       []traceRow      `json:"rows"`
	Accounting traceAccounting `json:"accounting"`
	Summary    traceSummary    `json:"summary"`
}

// trace measures the request-tracing layer's overhead on the daemon's
// hot loop: per-record evaluation of TT1 over the small-record Twitter
// corpus with a root span and an engine child span per record, exactly
// as jsonskid's /query path spends them. Four modes: baseline (no span
// code), off (nil tracer — the disabled path's nil checks), sampled
// (ratio 0.1), and always (ratio 1). Traced modes export to an NDJSON
// file sink in a temp dir. The report also carries the per-group
// fast-forward vs scanned byte attribution of one corpus pass. With
// -json the table is written as a machine-readable report (the
// BENCH_8.json trajectory).
func (h *harness) trace(jsonOut string) {
	q, _ := queries.ByID("TT1")
	recs := h.small(q.Dataset)
	cq := jsonski.MustCompile(q.Small)
	var totalBytes int64
	for _, r := range recs {
		totalBytes += int64(len(r))
	}

	fmt.Printf("\n== Tracing overhead: per-record root+engine spans (%s, %d records, %s) ==\n",
		q.ID, len(recs), fmtBytes(int(totalBytes)))
	fmt.Printf("%-9s %7s | %10s %9s %9s | %9s %9s %9s %9s\n",
		"mode", "sample", "ns/rec", "MB/s", "overhead",
		"started", "sampled", "exported", "dropped")

	rep := traceReport{
		Bench:      "trace",
		Schema:     1,
		SizeBytes:  h.size,
		GoMaxProcs: h.workers,
		GoVersion:  runtime.Version(),
		Dataset:    q.Dataset,
		Query:      q.Small,
		Records:    len(recs),
	}

	tmp, err := os.MkdirTemp("", "jsonskibench-trace")
	must(err)
	defer os.RemoveAll(tmp)

	modes := []struct {
		name  string
		ratio float64
	}{{"baseline", 0}, {"off", 0}, {"sampled", 0.1}, {"always", 1}}
	var baseNs int64
	for _, m := range modes {
		var tracer *telemetry.Tracer
		var exp *telemetry.Exporter
		if m.name == "sampled" || m.name == "always" {
			tracer = telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: m.ratio})
			exp, err = telemetry.NewExporter(tracer, telemetry.ExporterConfig{
				FilePath: filepath.Join(tmp, m.name+".ndjson"),
			})
			must(err)
		}
		var pass func()
		if m.name == "baseline" {
			pass = func() {
				for _, rec := range recs {
					_, err := cq.Run(context.Background(), jsonski.Bytes(rec), nil)
					must(err)
				}
			}
		} else {
			pass = func() { h.tracedPass(cq, recs, tracer) }
		}
		perPass := timeIt(pass)
		if exp != nil {
			must(exp.Close())
		}
		r := traceRow{
			Mode:        m.name,
			SampleRatio: m.ratio,
			NsPerRecord: perPass.Nanoseconds() / int64(len(recs)),
			MBs:         float64(totalBytes) / perPass.Seconds() / 1e6,
		}
		if m.name == "baseline" {
			baseNs = r.NsPerRecord
		} else if baseNs > 0 {
			r.OverheadPct = (float64(r.NsPerRecord)/float64(baseNs) - 1) * 100
		}
		if tracer != nil {
			ts := tracer.Stats()
			r.SpansStarted = ts.Started
			r.SpansSampled = ts.Sampled
			r.SpansExported = ts.ExportedSpans
			r.SpansDropped = ts.DroppedSpans
		}
		rep.Rows = append(rep.Rows, r)
		fmt.Printf("%-9s %7.2f | %10d %9.0f %8.1f%% | %9d %9d %9d %9d\n",
			r.Mode, r.SampleRatio, r.NsPerRecord, r.MBs, r.OverheadPct,
			r.SpansStarted, r.SpansSampled, r.SpansExported, r.SpansDropped)
	}

	// One accounted pass: where did the corpus's bytes go?
	var total jsonski.Stats
	for _, rec := range recs {
		st, err := cq.Run(context.Background(), jsonski.Bytes(rec), nil)
		must(err)
		total.Matches += st.Matches
		total.InputBytes += st.InputBytes
		for g := range total.SkippedBytes {
			total.SkippedBytes[g] += st.SkippedBytes[g]
		}
	}
	acc := traceAccounting{
		InputBytes:   total.InputBytes,
		ScannedBytes: total.ScannedBytes(),
		FFBytes:      total.SkippedBytes,
	}
	var ff int64
	for _, v := range acc.FFBytes {
		ff += v
	}
	if t := ff + acc.ScannedBytes; t > 0 {
		acc.SkipRatio = float64(ff) / float64(t)
	}
	rep.Accounting = acc
	fmt.Printf("accounting: input %d bytes = scanned %d + ff %d (skip ratio %.4f)\n",
		acc.InputBytes, acc.ScannedBytes, ff, acc.SkipRatio)

	s := traceSummary{BytesAccounted: acc.ScannedBytes+ff == acc.InputBytes}
	for _, r := range rep.Rows {
		switch r.Mode {
		case "off":
			s.DisabledOverheadPct = r.OverheadPct
		case "sampled":
			s.SampledOverheadPct = r.OverheadPct
		case "always":
			s.AlwaysOverheadPct = r.OverheadPct
		}
	}
	rep.Summary = s
	fmt.Printf("summary: disabled %.1f%%, sampled(0.1) %.1f%%, always %.1f%% overhead vs baseline; bytes accounted: %t\n",
		s.DisabledOverheadPct, s.SampledOverheadPct, s.AlwaysOverheadPct, s.BytesAccounted)

	if jsonOut != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		must(err)
		must(os.WriteFile(jsonOut, append(b, '\n'), 0o644))
		fmt.Printf("wrote %s\n", jsonOut)
	}
}

// tracedPass is one pass over the corpus through the daemon-shaped span
// path: a root span per record, an engine child carrying the paper's
// cost attribution, and the explain-sink run recording movement events
// when the record is sampled. A nil tracer exercises the disabled path:
// every span call reduces to a nil check.
func (h *harness) tracedPass(cq *jsonski.Query, recs [][]byte, tracer *telemetry.Tracer) {
	const spanEvents = 64
	for _, rec := range recs {
		root := tracer.StartRoot("POST /query", telemetry.SpanContext{})
		sp := root.StartChild("engine.run")
		var opt jsonski.Option
		if sp.Recording() {
			opt = jsonski.Explain(spanEvents)
		}
		st, err := cq.Run(context.Background(), jsonski.Bytes(rec), nil, opt)
		must(err)
		if sp.Recording() {
			sp.SetInt("jsonski.matches", st.Matches)
			sp.SetInt("jsonski.input.bytes", st.InputBytes)
			sp.SetInt("jsonski.scanned.bytes", st.ScannedBytes())
			sp.SetFloat("jsonski.skip.ratio", st.FastForwardRatio())
			if tr := st.Trace(); tr != nil {
				for _, e := range tr.Events {
					sp.AddEvent(e.Func, telemetry.String("group", e.Group), telemetry.Int("bytes", int64(e.Bytes)))
				}
			}
		}
		sp.End()
		root.End()
	}
}
