package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"jsonski"
	"jsonski/internal/fastforward"
	"jsonski/internal/telemetry"
)

// metrics holds the server's live counters and latency histograms,
// readable at any time without locks. Engine counters are fed from
// jsonski.Stats as each record finishes, so /metrics reflects requests
// still in progress. Each is exported through its declaration in
// declareMetrics and read only by snapshot: a telemetry.Counter has no
// exported read.
type metrics struct {
	queryRequests, multiRequests, docRequests, requestErrors, inFlight telemetry.Counter
	bytesIn, bytesOut, cancelledReads                                  telemetry.Counter
	records, recordErrors, matches, engineInBytes, scannedBytes        telemetry.Counter
	skipped                                                            [fastforward.NumGroups]telemetry.Counter

	// queryLatency, multiLatency, and docLatency time whole requests per
	// endpoint (observed in ServeHTTP); recordLatency times individual
	// record evaluations across the endpoints (observed in the eval
	// closures and the /doc lookup).
	queryLatency, multiLatency, recordLatency, docLatency telemetry.Histogram
}

// addStats folds one record evaluation into the engine counters. Write
// order matters for snapshot consistency: input and scanned bytes are
// published before the skipped-byte groups, so a snapshot that reads
// the groups first (they are declared First) pairs each group with
// denominator totals at least as new — derived skip ratios can
// undershoot briefly but never exceed reality.
func (m *metrics) addStats(st jsonski.Stats) {
	m.records.Add(1)
	m.matches.Add(st.Matches)
	m.engineInBytes.Add(st.InputBytes)
	m.scannedBytes.Add(st.ScannedBytes())
	for g, v := range st.SkippedBytes {
		if v != 0 {
			m.skipped[g].Add(v)
		}
	}
}

func label(name, value string) []telemetry.Label {
	return []telemetry.Label{{Name: name, Value: value}}
}

// when returns the family name while the feature it reports on is
// enabled, and "" (JSON only) otherwise.
func when(enabled bool, name string) string {
	if enabled {
		return name
	}
	return ""
}

// value adapts a plain read to a telemetry.Source.
func value(read func() any) telemetry.Func {
	return func(*telemetry.Snapshot) any { return read() }
}

// share is a's fraction of a+b, 0 when both are 0.
func share(a, b int64) float64 {
	if total := a + b; total > 0 {
		return float64(a) / float64(total)
	}
	return 0
}

// declareMetrics is the server's metric table: every value GET /metrics
// and GET /metrics/prom report, declared once with its JSON key, its
// Prometheus family and labels, and its source. Declaration order is
// the JSON document's field order, which existing consumers rely on:
// new keys go at the end of their section. The index cache, catalog and
// trace families other than their *_enabled gauges reach Prometheus
// only while the feature is on; their JSON keys are always present.
func (s *Server) declareMetrics() []telemetry.Metric {
	m := &s.m
	icacheOn, catalogOn, traceOn := s.icache != nil, s.catalog != nil, s.tracer != nil
	engine := func(sn *telemetry.Snapshot) jsonski.Stats {
		st := jsonski.Stats{InputBytes: sn.Count(&m.engineInBytes)}
		for g := range st.SkippedBytes {
			st.SkippedBytes[g] = sn.Count(&m.skipped[g])
		}
		return st
	}
	icache := func() jsonski.IndexCacheStats {
		if !icacheOn {
			return jsonski.IndexCacheStats{}
		}
		return s.icache.Stats()
	}
	catalog := func() jsonski.CatalogStats {
		if !catalogOn {
			return jsonski.CatalogStats{}
		}
		return s.catalog.Stats()
	}
	// build.revision and build.modified are left out of JSON when empty.
	build := telemetry.BuildInfo()
	var revision, modified any
	if build.Revision != "" {
		revision = build.Revision
	}
	if build.Modified {
		modified = true
	}

	ms := []telemetry.Metric{
		{Key: "requests.query", Name: "jsonski_requests_total", Help: "Requests served, by endpoint.", Type: "counter", Labels: label("endpoint", "query"), Source: &m.queryRequests},
		{Key: "requests.multi", Name: "jsonski_requests_total", Labels: label("endpoint", "multi"), Source: &m.multiRequests},
		{Key: "requests.errors", Name: "jsonski_request_errors_total", Help: "Requests or records that produced an error response or error line.", Type: "counter", Source: &m.requestErrors},
		{Key: "requests.in_flight", Name: "jsonski_in_flight_requests", Help: "Evaluation requests currently being served.", Type: "gauge", Source: &m.inFlight},
		{Key: "requests.doc", Name: "jsonski_requests_total", Labels: label("endpoint", "doc"), Source: &m.docRequests},

		{Key: "io.bytes_in", Name: "jsonski_io_bytes_total", Help: "Bytes moved over HTTP, by direction.", Type: "counter", Labels: label("direction", "in"), Source: &m.bytesIn},
		{Key: "io.bytes_out", Name: "jsonski_io_bytes_total", Labels: label("direction", "out"), Source: &m.bytesOut},
		{Key: "io.cancelled_reads", Name: "jsonski_cancelled_reads_total", Help: "Request bodies abandoned because the client went away.", Type: "counter", Source: &m.cancelledReads},

		{Key: "engine.records", Name: "jsonski_records_total", Help: "JSON records evaluated.", Type: "counter", Source: &m.records},
		{Key: "engine.record_errors", Name: "jsonski_record_errors_total", Help: "Records whose evaluation failed.", Type: "counter", Source: &m.recordErrors},
		{Key: "engine.matches", Name: "jsonski_matches_total", Help: "Values emitted by the query engines.", Type: "counter", Source: &m.matches},
		{Key: "engine.input_bytes", Name: "jsonski_engine_input_bytes_total", Help: "Bytes handed to the query engines.", Type: "counter", Source: &m.engineInBytes},
	}
	// Per-group samples, ranging over the Table 1 groups: the skipped
	// bytes (read First: they are the ratios' numerators), the same
	// counters again under the jsonski_ff_bytes_total name, and the
	// JSON-only per-group ratios.
	for g := range m.skipped {
		ms = append(ms, telemetry.Metric{Key: "engine.skipped_bytes[]", Name: "jsonski_skipped_bytes_total",
			Help: "Bytes fast-forwarded over, by paper group G1..G5.", Type: "counter",
			Labels: label("group", fastforward.Group(g).String()), First: true, Source: &m.skipped[g]})
	}
	for g := range m.skipped {
		ms = append(ms, telemetry.Metric{Name: "jsonski_ff_bytes_total",
			Help: "Bytes fast-forwarded over, by Table 1 charge group G1..G5.", Type: "counter",
			Labels: label("group", fastforward.Group(g).String()),
			Source: telemetry.Func(func(sn *telemetry.Snapshot) any { return sn.Count(&m.skipped[g]) })})
	}
	ms = append(ms, telemetry.Metric{Key: "engine.fast_forward_ratio", Name: "jsonski_fast_forward_ratio",
		Help: "Fraction of engine input bytes fast-forwarded over.", Type: "gauge",
		Source: telemetry.Func(func(sn *telemetry.Snapshot) any { return engine(sn).FastForwardRatio() })})
	for g := range m.skipped {
		ms = append(ms, telemetry.Metric{Key: "engine.group_ratios[]",
			Source: telemetry.Func(func(sn *telemetry.Snapshot) any { return engine(sn).GroupRatio(g) })})
	}
	return append(ms, []telemetry.Metric{
		// scanned_bytes is the complement of the skipped groups, read
		// right after them, so skip_ratio's denominator is at least as
		// fresh as its numerator.
		{Key: "engine.scanned_bytes", Name: "jsonski_scanned_bytes_total", Help: "Bytes the engines examined rather than fast-forwarded over.", Type: "counter", First: true, Source: &m.scannedBytes},
		{Key: "engine.skip_ratio", Name: "jsonski_skip_ratio", Help: "Fast-forwarded fraction of all charged bytes: ff / (ff + scanned).", Type: "gauge",
			Source: telemetry.Func(func(sn *telemetry.Snapshot) any {
				var ff int64
				for _, v := range engine(sn).SkippedBytes {
					ff += v
				}
				return share(ff, sn.Count(&m.scannedBytes))
			})},

		{Key: "cache.hits", Name: "jsonski_cache_events_total", Help: "Compiled-query cache events.", Type: "counter", Labels: label("event", "hit"), Source: value(func() any { return s.cache.Stats().Hits })},
		{Key: "cache.misses", Name: "jsonski_cache_events_total", Labels: label("event", "miss"), Source: value(func() any { return s.cache.Stats().Misses })},
		{Key: "cache.evictions", Name: "jsonski_cache_events_total", Labels: label("event", "eviction"), Source: value(func() any { return s.cache.Stats().Evictions })},
		{Key: "cache.size", Name: "jsonski_cache_entries", Help: "Compiled queries resident in the LRU cache.", Type: "gauge", Source: value(func() any { return s.cache.Stats().Size })},
		{Key: "cache.cap", Source: value(func() any { return s.cache.Stats().Cap })},
		{Key: "cache.hit_rate", Name: "jsonski_cache_hit_ratio", Help: "Compiled-query cache hit ratio.", Type: "gauge", Source: value(func() any { return s.cache.Stats().HitRate() })},

		{Key: "index_cache.enabled", Name: "jsonski_index_cache_enabled", Help: "Whether the structural-index cache is enabled.", Type: "gauge", Source: value(func() any { return icacheOn })},
		{Key: "index_cache.hits", Name: when(icacheOn, "jsonski_index_cache_events_total"), Help: "Structural-index cache events.", Type: "counter", Labels: label("event", "hit"), Source: value(func() any { return icache().Hits })},
		{Key: "index_cache.misses", Name: when(icacheOn, "jsonski_index_cache_events_total"), Labels: label("event", "miss"), Source: value(func() any { return icache().Misses })},
		{Key: "index_cache.evictions", Name: when(icacheOn, "jsonski_index_cache_events_total"), Labels: label("event", "eviction"), Source: value(func() any { return icache().Evictions })},
		{Key: "index_cache.entries", Source: value(func() any { return icache().Entries })},
		{Key: "index_cache.bytes", Name: when(icacheOn, "jsonski_index_cache_bytes"), Help: "Bytes of documents resident in the structural-index cache.", Type: "gauge", Source: value(func() any { return icache().Bytes })},
		{Key: "index_cache.cap_bytes", Source: value(func() any { return icache().CapBytes })},
		{Key: "index_cache.bytes_indexed", Source: value(func() any { return icache().BytesIndexed })},
		{Key: "index_cache.hit_rate", Name: when(icacheOn, "jsonski_index_cache_hit_ratio"), Help: "Structural-index cache hit ratio.", Type: "gauge", Source: value(func() any { return icache().HitRate() })},

		{Key: "workers.count", Name: "jsonski_workers", Help: "Evaluation worker goroutines.", Type: "gauge", Source: value(func() any { return s.pool.workers() })},
		{Key: "workers.queue_depth", Name: "jsonski_worker_queue_depth", Help: "Accepted-but-unstarted record evaluations.", Type: "gauge", Source: value(func() any { return s.pool.queueDepth() })},
		{Key: "workers.queue_capacity", Name: "jsonski_worker_queue_capacity", Help: "Worker queue capacity.", Type: "gauge", Source: value(func() any { return s.pool.queueCap() })},

		{Key: "latency.query", Name: "jsonski_request_duration_seconds", Help: "Whole-request latency, by endpoint.", Type: "histogram", Labels: label("endpoint", "query"), Source: &m.queryLatency},
		{Key: "latency.multi", Name: "jsonski_request_duration_seconds", Labels: label("endpoint", "multi"), Source: &m.multiLatency},
		{Key: "latency.record", Name: "jsonski_record_duration_seconds", Help: "Single-record evaluation latency.", Type: "histogram", Source: &m.recordLatency},
		{Key: "latency.doc", Name: "jsonski_request_duration_seconds", Labels: label("endpoint", "doc"), Source: &m.docLatency},

		{Key: "uptime_seconds", Name: "jsonski_uptime_seconds", Help: "Seconds since the server started.", Type: "gauge", Source: value(func() any { return time.Since(s.start).Seconds() })},

		// build.version is the one-liner the -version flags print, so a
		// scrape identifies the running build without shell access.
		{Key: "build.go_version", Source: value(func() any { return build.GoVersion })},
		{Key: "build.revision", Source: value(func() any { return revision })},
		{Key: "build.modified", Source: value(func() any { return modified })},
		{Key: "build.version", Source: value(func() any { return build.Version() })},
		{Name: "jsonski_build_info", Help: "Build metadata; the value is always 1.", Type: "gauge", Labels: []telemetry.Label{
			{Name: "go_version", Value: build.GoVersion},
			{Name: "revision", Value: build.Revision},
			{Name: "modified", Value: strconv.FormatBool(build.Modified)},
			{Name: "version", Value: build.Version()},
		}, Source: value(func() any { return 1 })},

		// catalog reports the persistent index catalog (-index-dir); GET
		// /index serves the same section as its stats.
		{Key: "catalog.enabled", Name: "jsonski_catalog_enabled", Help: "Whether the persistent index catalog (-index-dir) is enabled.", Type: "gauge", Source: value(func() any { return catalogOn })},
		{Key: "catalog.hits", Name: when(catalogOn, "jsonski_catalog_events_total"), Help: "Persistent index catalog events.", Type: "counter", Labels: label("event", "hit"), Source: value(func() any { return catalog().Hits })},
		{Key: "catalog.misses", Name: when(catalogOn, "jsonski_catalog_events_total"), Labels: label("event", "miss"), Source: value(func() any { return catalog().Misses })},
		{Key: "catalog.opens", Name: when(catalogOn, "jsonski_catalog_events_total"), Labels: label("event", "open"), Source: value(func() any { return catalog().Opens })},
		{Key: "catalog.builds", Name: when(catalogOn, "jsonski_catalog_events_total"), Labels: label("event", "build"), Source: value(func() any { return catalog().Builds })},
		{Key: "catalog.evictions", Name: when(catalogOn, "jsonski_catalog_events_total"), Labels: label("event", "eviction"), Source: value(func() any { return catalog().Evictions })},
		{Key: "catalog.invalidated", Name: when(catalogOn, "jsonski_catalog_events_total"), Labels: label("event", "invalidated"), Source: value(func() any { return catalog().Invalidated })},
		{Key: "catalog.entries", Name: when(catalogOn, "jsonski_catalog_entries"), Help: "Serialized index sidecars resident in the catalog.", Type: "gauge", Source: value(func() any { return catalog().Entries })},
		{Key: "catalog.bytes", Name: when(catalogOn, "jsonski_catalog_bytes"), Help: "On-disk bytes of cataloged sidecars.", Type: "gauge", Source: value(func() any { return catalog().Bytes })},
		{Key: "catalog.cap_bytes", Source: value(func() any { return catalog().CapBytes })},
		{Key: "catalog.mmap", Source: value(func() any { return catalog().Mapped })},
		{Key: "catalog.hit_rate", Name: when(catalogOn, "jsonski_catalog_hit_ratio"), Help: "Catalog hit ratio on single-document queries.", Type: "gauge", Source: value(func() any {
			st := catalog()
			return share(st.Hits, st.Misses)
		})},

		// trace reports the distributed-tracing pipeline (-trace-endpoint
		// / -trace-file) from the tracer's own counters.
		{Key: "trace.enabled", Name: "jsonski_trace_enabled", Help: "Whether distributed tracing is enabled.", Type: "gauge", Source: value(func() any { return traceOn })},
		{Key: "trace.spans_started", Name: when(traceOn, "jsonski_trace_spans_total"), Help: "Trace spans, by pipeline outcome.", Type: "counter", Labels: label("outcome", "started"), Source: value(func() any { return s.tracer.Stats().Started })},
		{Key: "trace.spans_sampled", Name: when(traceOn, "jsonski_trace_spans_total"), Labels: label("outcome", "sampled"), Source: value(func() any { return s.tracer.Stats().Sampled })},
		{Key: "trace.spans_forced", Name: when(traceOn, "jsonski_trace_spans_total"), Labels: label("outcome", "forced"), Source: value(func() any { return s.tracer.Stats().Forced })},
		{Key: "trace.spans_dropped", Name: when(traceOn, "jsonski_trace_spans_total"), Labels: label("outcome", "dropped"), Source: value(func() any { return s.tracer.Stats().DroppedSpans })},
		{Key: "trace.spans_exported", Name: when(traceOn, "jsonski_trace_spans_total"), Labels: label("outcome", "exported"), Source: value(func() any { return s.tracer.Stats().ExportedSpans })},
		{Key: "trace.export_batches", Name: when(traceOn, "jsonski_trace_export_batches_total"), Help: "Span batches handed to the trace sinks.", Type: "counter", Source: value(func() any { return s.tracer.Stats().ExportBatches })},
		{Key: "trace.export_errors", Name: when(traceOn, "jsonski_trace_export_errors_total"), Help: "Trace sink writes that failed (POST or file).", Type: "counter", Source: value(func() any { return s.tracer.Stats().ExportErrors })},
	}...)
}

// snapshot is the single read of the metric table; both metrics
// handlers render from it. The skipped-byte groups and the scanned
// total are declared First, and the ratios over them are derived from
// the values read, so a scrape racing a record can see a ratio that is
// momentarily low, never one above the true value.
func (s *Server) snapshot() *telemetry.Snapshot { return telemetry.Read(s.table) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.MarshalIndent(s.snapshot().Object(""), "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.write(w, append(b, '\n'))
}

// handleProm serves GET /metrics/prom: one read of the table GET
// /metrics renders, in the Prometheus text exposition format, with the
// latency histograms as cumulative bucket series.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.snapshot().WriteProm(w) // a failed write means the scraper went away
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.write(w, []byte("ok\n"))
}

// handleReadyz serves the readiness probe: 200 while the server is
// accepting work, 503 once BeginShutdown has been called or while the
// worker queue is fully saturated (submitting would block), so load
// balancers drain and route around an overloaded instance.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.down.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		s.write(w, []byte("shutting down\n"))
		return
	}
	if s.pool.queueDepth() >= s.pool.queueCap() {
		w.WriteHeader(http.StatusServiceUnavailable)
		s.write(w, []byte("worker queue saturated\n"))
		return
	}
	s.write(w, []byte("ok\n"))
}
