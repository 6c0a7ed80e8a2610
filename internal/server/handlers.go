package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jsonski"
	"jsonski/internal/telemetry"
)

// Explain-mode event caps: a single record's trace is bounded at
// perRecordExplainEvents, and the whole response trailer at
// maxExplainEvents — adversarial inputs (one skip per byte) cost a
// bounded amount of memory per request no matter the body size.
const (
	perRecordExplainEvents = 512
	maxExplainEvents       = 4096
)

// recResult is one record's rendered output: the NDJSON lines for its
// matches, or the evaluation error. buf, when non-nil, is the pooled
// buffer backing out; release returns it once the bytes are written.
// trace is non-nil only in explain mode.
type recResult struct {
	idx   int
	out   []byte
	buf   *bytes.Buffer
	err   error
	trace *jsonski.Trace
}

// release returns the pooled line buffer after out has been consumed.
func (r *recResult) release() {
	if r.buf != nil {
		putLineBuf(r.buf)
		r.buf, r.out = nil, nil
	}
}

// linePool recycles the per-record output buffers of the NDJSON stream
// path; records flow through the sliding window continuously, so fresh
// buffers per record would dominate the handler's allocations.
var linePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getLineBuf() *bytes.Buffer {
	buf := linePool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putLineBuf(buf *bytes.Buffer) {
	// Oversized one-off buffers (a record with huge matches) are dropped
	// rather than pinned in the pool.
	if buf.Cap() <= 1<<20 {
		linePool.Put(buf)
	}
}

// NDJSON line framing for /query output: every match is wrapped as
// {"record":N,"value":<match>}. recordPrefix renders the opening frame
// for record idx; singlePrefix is the constant frame of single-document
// requests.
var (
	singlePrefix = recordPrefix(0)
	lineSuffix   = []byte("}\n")
)

func recordPrefix(idx int) []byte {
	b := make([]byte, 0, 24)
	b = append(b, `{"record":`...)
	b = strconv.AppendInt(b, int64(idx), 10)
	return append(b, `,"value":`...)
}

// evalFunc evaluates one record and renders its match lines. It runs on
// pool workers, concurrently with other records.
type evalFunc func(rec []byte, idx int) recResult

// evaluator bundles a record evaluation with its indexed twin. eval
// handles NDJSON stream records (each line is seen once; indexing it
// would be pure overhead); evalIndexed handles single-document
// requests through the structural-index cache, so repeated queries
// over a hot document reuse its word masks. single, when set, replaces
// both for non-explain single-document requests: it streams match
// lines straight from the record buffer into the response writer
// through a zero-copy StreamSink instead of rendering into an
// intermediate buffer (ix is nil when the index cache is off). In
// explain mode (explain set) eval records a fast-forward trace and the
// other paths are unused: explain runs bypass the index cache so the
// trace reflects exactly the movements of this evaluation.
type evaluator struct {
	eval        evalFunc
	evalIndexed func(ix *jsonski.Index, idx int) recResult
	single      func(w io.Writer, data []byte, ix *jsonski.Index) error
	explain     bool
}

// explainRequested reports whether the request opted into explain mode.
func explainRequested(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.m.queryRequests.Add(1)
	path := r.URL.Query().Get("path")
	if path == "" {
		s.jsonError(w, http.StatusBadRequest, errors.New("missing ?path= query parameter"))
		return
	}
	q, err := s.cache.Query(path)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	// The request's root span (nil unless tracing is on and the request
	// was sampled or force-collected); evaluations hang per-record
	// engine spans off it from pool workers, which StartChild permits.
	rsp := telemetry.SpanFromContext(r.Context())
	explain := explainRequested(r)
	// run evaluates one input into sink. An explain request records each
	// record's movements for the response trailer; otherwise a sampled
	// engine span records them as its events. Same engine, same output.
	run := func(sp *telemetry.Span, idx int, in jsonski.Input, sink jsonski.Sink) (jsonski.Stats, error) {
		var opt jsonski.Option
		switch {
		case explain:
			opt = jsonski.Explain(perRecordExplainEvents)
		case sp.Recording():
			opt = jsonski.Explain(spanTraceEvents)
		}
		t0 := time.Now()
		st, err := q.Run(r.Context(), in, sink, opt)
		s.m.recordLatency.Observe(time.Since(t0))
		s.m.addStats(st)
		s.finishEngineSpan(sp, idx, st, err)
		return st, err
	}
	s.serve(w, r, evaluator{
		explain: explain,
		eval: func(rec []byte, idx int) recResult {
			buf := getLineBuf()
			sink := &jsonski.StreamSink{W: buf, Prefix: recordPrefix(idx), Suffix: lineSuffix}
			st, err := run(rsp.StartChild("engine.run"), idx, jsonski.Bytes(rec), sink)
			return recResult{idx: idx, out: buf.Bytes(), buf: buf, err: err, trace: st.Trace()}
		},
		single: func(w io.Writer, data []byte, ix *jsonski.Index) error {
			sp := rsp.StartChild("engine.run")
			sp.SetBool("jsonski.indexed", ix != nil)
			in := jsonski.Bytes(data)
			if ix != nil {
				in = jsonski.Indexed(ix)
			}
			_, err := run(sp, 0, in, &jsonski.StreamSink{W: w, Prefix: singlePrefix, Suffix: lineSuffix})
			return err
		},
	})
}

func (s *Server) handleMulti(w http.ResponseWriter, r *http.Request) {
	s.m.multiRequests.Add(1)
	paths := r.URL.Query()["path"]
	if len(paths) == 0 {
		s.jsonError(w, http.StatusBadRequest, errors.New("missing ?path= query parameters"))
		return
	}
	if explainRequested(r) {
		// A QuerySet runs one pass per member, and the trailer's events
		// carry a record but no member, so explain is a /query-only
		// feature.
		s.jsonError(w, http.StatusBadRequest, errors.New("explain is not supported on /multi; use /query"))
		return
	}
	qs, err := s.cache.QuerySet(paths...)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	rsp := telemetry.SpanFromContext(r.Context())
	run := func(idx int, in jsonski.Input, indexed bool) recResult {
		buf := getLineBuf()
		sp := rsp.StartChild("engine.run")
		if indexed {
			sp.SetBool("jsonski.indexed", true)
		}
		t0 := time.Now()
		st, err := qs.Run(r.Context(), in, jsonski.FuncSink(multiLine(buf, idx)))
		s.m.recordLatency.Observe(time.Since(t0))
		s.m.addStats(st)
		s.finishEngineSpan(sp, idx, st, err)
		return recResult{idx: idx, out: buf.Bytes(), buf: buf, err: err}
	}
	s.serve(w, r, evaluator{
		eval: func(rec []byte, idx int) recResult { return run(idx, jsonski.Bytes(rec), false) },
		evalIndexed: func(ix *jsonski.Index, idx int) recResult {
			return run(idx, jsonski.Indexed(ix), true)
		},
	})
}

// multiLine renders each /multi match as an NDJSON line into buf.
func multiLine(buf *bytes.Buffer, idx int) func(jsonski.Match) {
	return func(m jsonski.Match) {
		buf.WriteString(`{"record":`)
		buf.WriteString(strconv.Itoa(idx))
		buf.WriteString(`,"query":`)
		buf.WriteString(strconv.Itoa(m.Query))
		buf.WriteString(`,"value":`)
		buf.Write(m.Value)
		buf.WriteString("}\n")
	}
}

// serve wires a request body into the evaluator: a single JSON record
// when the Content-Type says application/json, an NDJSON record stream
// otherwise.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, ev evaluator) {
	s.m.inFlight.Add(1)
	defer s.m.inFlight.Add(-1)
	var body io.Reader = r.Body
	if s.cfg.MaxBodyBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	body = &countingReader{r: body, n: &s.m.bytesIn}

	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ct == "application/json" {
		s.serveSingle(w, r, body, ev)
		return
	}
	s.streamRecords(w, r, body, ev)
}

// explainEvent is one trailer event: a public trace event tagged with
// the record it came from.
type explainEvent struct {
	Record int `json:"record"`
	jsonski.TraceEvent
}

// explainTrail accumulates the bounded explain trailer of a response.
type explainTrail struct {
	events  []explainEvent
	dropped int
}

// add folds one record's trace in, enforcing the global event cap.
func (t *explainTrail) add(idx int, tr *jsonski.Trace) {
	if tr == nil {
		return
	}
	t.dropped += tr.Dropped
	for _, e := range tr.Events {
		if len(t.events) >= maxExplainEvents {
			t.dropped++
			continue
		}
		t.events = append(t.events, explainEvent{Record: idx, TraceEvent: e})
	}
}

// line renders the trailer as one NDJSON line. Truncation is never
// silent: dropped_events carries the count of movements that fell past
// the per-record and whole-response caps ("dropped" is the same value
// under the trailer's original field name, kept for existing parsers).
func (t *explainTrail) line() []byte {
	var out struct {
		Explain struct {
			Events        []explainEvent `json:"events"`
			Dropped       int            `json:"dropped"`
			DroppedEvents int            `json:"dropped_events"`
		} `json:"explain"`
	}
	out.Explain.Events = t.events
	if out.Explain.Events == nil {
		out.Explain.Events = []explainEvent{}
	}
	out.Explain.Dropped = t.dropped
	out.Explain.DroppedEvents = t.dropped
	b, _ := json.Marshal(out)
	return append(b, '\n')
}

// serveSingle evaluates the whole body as one record. With the index
// cache enabled it runs through a cached structural index: the body
// buffer is fresh per request (ReadAll), so the cache can safely retain
// it, and repeated posts of the same document hit the cached masks.
func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, body io.Reader, ev evaluator) {
	data, err := io.ReadAll(body)
	if err != nil {
		s.requestError(w, err)
		return
	}
	data = bytes.TrimSpace(data)
	if len(data) == 0 {
		s.jsonError(w, http.StatusBadRequest, errors.New("empty body"))
		return
	}
	if ev.single != nil && !ev.explain {
		s.serveSingleStreaming(w, r, data, ev)
		return
	}
	var res recResult
	if !ev.explain && ev.evalIndexed != nil {
		if ix := s.lookupIndex(telemetry.SpanFromContext(r.Context()), data); ix != nil {
			res = ev.evalIndexed(ix, 0)
			ix.Release()
		} else {
			res = ev.eval(data, 0)
		}
	} else {
		// Explain runs bypass the index tiers: the trace should describe
		// this evaluation's movements, not a cached index's.
		res = ev.eval(data, 0)
	}
	if res.err != nil {
		s.m.recordErrors.Add(1)
		res.release()
		s.jsonError(w, http.StatusBadRequest, res.err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.write(w, res.out)
	res.release()
	if ev.explain {
		var trail explainTrail
		trail.add(0, res.trace)
		s.write(w, trail.line())
	}
}

// lookupIndex resolves a single-document request body to a structural
// index through the two tiers: the persistent catalog first (a hit is a
// mapped sidecar — masks shared page-cache-wide, zero rebuild even
// across daemon restarts), then the in-memory index cache (which builds
// and retains on miss). Returns nil when both tiers are disabled; the
// caller owns one reference otherwise. On traced requests the lookup is
// timed as an index.lookup child span tagged with the tier that served
// it, so a trace distinguishes mask reuse from a rebuild.
func (s *Server) lookupIndex(rsp *telemetry.Span, data []byte) *jsonski.Index {
	sp := rsp.StartChild("index.lookup")
	defer sp.End()
	sp.SetInt("jsonski.document.bytes", int64(len(data)))
	if s.catalog != nil {
		if ix, _ := s.catalog.Get(data); ix != nil {
			sp.SetString("jsonski.index.tier", "catalog")
			return ix
		}
	}
	if s.icache != nil {
		ix := s.icache.Get(data)
		if ix != nil {
			sp.SetString("jsonski.index.tier", "cache")
		}
		return ix
	}
	sp.SetString("jsonski.index.tier", "none")
	return nil
}

// responseBufPool recycles the output buffers of the streaming
// single-document path.
var responseBufPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 16<<10) },
}

// hideFlush exposes only Write, so the StreamSink's end-of-run Flush
// cannot push buffered output to the wire before serveSingleStreaming
// has decided between success and a full-status error.
type hideFlush struct{ io.Writer }

// countingWriter tallies bytes that actually reach the response.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
	// sent is the bytes forwarded on this response; once nonzero the
	// status line is committed and errors must become NDJSON lines.
	sent int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sent += int64(n)
	c.n.Add(int64(n))
	return n, err
}

// serveSingleStreaming evaluates the whole body as one record with
// match lines streamed straight from the record buffer to the response
// (no intermediate rendering of the result set). Output is buffered
// 16KB at a time: an evaluation error before anything reached the wire
// still gets a full-status 400 with the partial output discarded;
// after that the error becomes a trailing NDJSON line, as on the
// record-stream path.
func (s *Server) serveSingleStreaming(w http.ResponseWriter, r *http.Request, data []byte, ev evaluator) {
	rsp := telemetry.SpanFromContext(r.Context())
	ix := s.lookupIndex(rsp, data)
	if ix != nil {
		defer ix.Release()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w, n: &s.m.bytesOut}
	bw := responseBufPool.Get().(*bufio.Writer)
	bw.Reset(cw)
	defer func() {
		bw.Reset(nil)
		responseBufPool.Put(bw)
	}()
	if err := ev.single(hideFlush{bw}, data, ix); err != nil {
		s.m.recordErrors.Add(1)
		if cw.sent == 0 {
			s.jsonError(w, http.StatusBadRequest, err)
			return
		}
		s.flushSink(rsp, bw)
		s.writeErrorLine(w, 0, err)
		return
	}
	s.flushSink(rsp, bw)
}

// streamRecords pipelines an NDJSON body through the worker pool with a
// sliding window of in-flight records: up to `depth` records are being
// evaluated while earlier results are written back in input order and
// flushed one record at a time, so the client sees matches for record n
// while record n+k is still parsing — including clients that trickle
// records in over a held-open connection. The window, together with the
// pool's bounded queue, is the request's backpressure: reading from the
// body pauses whenever the window is full.
//
// NDJSON records are independent, so a malformed record does not abort
// the stream: it becomes a {"record":n,"error":...} line (counted in
// /metrics) and evaluation continues with the next record.
func (s *Server) streamRecords(w http.ResponseWriter, r *http.Request, body io.Reader, ev evaluator) {
	eval := ev.eval
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// HTTP/1 servers assume a handler stops reading the body once it
	// writes the response; we interleave the two by design (matches for
	// record n stream back while record n+k is still uploading), which
	// needs full-duplex mode. HTTP/2 is always full duplex; ignore the
	// not-supported error there.
	_ = rc.EnableFullDuplex()
	depth := 2 * s.cfg.Workers

	// The body is read by its own goroutine so the handler can hand a
	// finished result to the client while the next record is still in
	// flight on the wire. The goroutine owns r.Body until it sees EOF,
	// a read error, or ctx done — the handler joins on readDone before
	// returning, so the body is never touched after ServeHTTP exits.
	lines := make(chan []byte)
	readDone := make(chan error, 1)
	go func() {
		defer close(lines)
		br := bufio.NewReaderSize(body, 64<<10)
		for {
			line, err := readLine(br)
			if len(line) > 0 {
				select {
				case lines <- line:
				case <-ctx.Done():
					readDone <- ctx.Err()
					return
				}
			}
			if err == io.EOF {
				readDone <- nil
				return
			}
			if err != nil {
				readDone <- err
				return
			}
		}
	}()

	window := make([]chan recResult, 0, depth)
	idx := 0
	wroteAny := false
	linesOpen := true

	var trail explainTrail
	flush := func() { _ = rc.Flush() }
	writeResult := func(res recResult) {
		if ev.explain {
			trail.add(res.idx, res.trace)
		}
		if res.err != nil {
			s.m.recordErrors.Add(1)
			res.release()
			s.writeErrorLine(w, res.idx, res.err)
			wroteAny = true
			flush()
			return
		}
		if len(res.out) > 0 {
			s.write(w, res.out)
			wroteAny = true
			flush()
		}
		res.release()
	}

loop:
	for linesOpen || len(window) > 0 {
		var ready chan recResult
		if len(window) > 0 {
			ready = window[0]
		}
		var lineCh chan []byte
		if linesOpen && len(window) < depth {
			lineCh = lines
		}
		select {
		case line, ok := <-lineCh:
			if !ok {
				linesOpen = false
				continue
			}
			// bufio.ReadBytes hands each line out in a fresh slice, so
			// records can cross into worker goroutines as-is.
			rec, i := line, idx
			idx++
			ch := make(chan recResult, 1)
			if err := s.pool.submit(ctx, func() { ch <- eval(rec, i) }); err != nil {
				break loop
			}
			window = append(window, ch)
		case res := <-ready:
			window = window[1:]
			writeResult(res)
		case <-ctx.Done():
			break loop
		}
	}
	// On an early break the reader may be blocked handing us a line;
	// keep receiving (and discarding) so it can run to EOF or error.
	for linesOpen {
		if _, ok := <-lines; !ok {
			linesOpen = false
		}
	}
	// Drain results still in flight (every submitted task sends exactly
	// once into its buffered channel), then join the reader.
	for _, ch := range window {
		if ctx.Err() == nil {
			writeResult(<-ch)
		} else {
			res := <-ch
			res.release()
		}
	}
	if err := <-readDone; err != nil {
		if ctx.Err() != nil {
			s.m.cancelledReads.Add(1)
			return
		}
		s.requestErrorMidStream(w, wroteAny, err)
		return
	}
	if ev.explain && ctx.Err() == nil {
		// The explain trailer is the stream's last line, present even
		// when no record produced a match.
		s.write(w, trail.line())
		flush()
		return
	}
	if !wroteAny {
		// No record produced a match: still a success, still NDJSON —
		// just an empty stream.
		w.WriteHeader(http.StatusOK)
	}
}

// requestError maps a body-read failure to a status code before any
// output has been written.
func (s *Server) requestError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	s.jsonError(w, status, err)
}

// requestErrorMidStream reports a body-read failure that may arrive
// after match lines have already been streamed; in that case the status
// line is long gone and the error becomes a trailing NDJSON line.
func (s *Server) requestErrorMidStream(w http.ResponseWriter, wroteAny bool, err error) {
	if !wroteAny {
		s.requestError(w, err)
		return
	}
	s.writeErrorLine(w, -1, err)
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
}

// jsonError sends a {"error": ...} response with the given status.
func (s *Server) jsonError(w http.ResponseWriter, status int, err error) {
	s.m.requestErrors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{err.Error()})
	s.write(w, append(b, '\n'))
}

// writeErrorLine appends an NDJSON error line to an already-started
// stream. record is -1 when the error is not tied to one record.
func (s *Server) writeErrorLine(w http.ResponseWriter, record int, err error) {
	s.m.requestErrors.Add(1)
	var line struct {
		Record *int   `json:"record,omitempty"`
		Error  string `json:"error"`
	}
	if record >= 0 {
		line.Record = &record
	}
	line.Error = err.Error()
	b, _ := json.Marshal(line)
	s.write(w, append(b, '\n'))
}

// readLine reads one newline-terminated record, trimming whitespace.
// Lines longer than the reader's buffer are handled by ReadBytes.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	return bytes.TrimSpace(line), err
}
