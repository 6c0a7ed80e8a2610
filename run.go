package jsonski

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"jsonski/internal/core"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// Input is what a run reads: one JSON record (Bytes, Indexed) or a
// sequence of independent records (Records, Windows, Reader). The zero
// Input is Bytes(nil).
type Input struct {
	kind  inputKind
	data  []byte
	ix    *Index
	recs  [][]byte
	spans []Span
	r     io.Reader
}

type inputKind uint8

const (
	inBytes inputKind = iota
	inIndexed
	inRecords
	inWindows
	inReader
)

// Bytes is one JSON record held in data.
func Bytes(data []byte) Input { return Input{kind: inBytes, data: data} }

// Indexed is one JSON record read through its prebuilt structural
// index: the engines borrow ix's materialized word masks instead of
// classifying words on the fly, which pays off whenever the same
// document is streamed more than once. The index must stay alive (not
// finally Released) for the duration of the run.
func Indexed(ix *Index) Input { return Input{kind: inIndexed, ix: ix} }

// Records is a sequence of independent JSON records, record i in
// recs[i] — the paper's small-record scenario (Figures 11 and 12).
func Records(recs [][]byte) Input { return Input{kind: inRecords, recs: recs} }

// Windows is a sequence of records that are byte windows of one indexed
// buffer, record i in [spans[i].Start, spans[i].End) of ix.Data(). Each
// window borrows the whole-buffer masks, with no per-record index build
// or copy, which is how the records of a serialized NDJSON corpus (see
// RecordSpans, LoadIndex, Catalog) are queried zero-copy. A single
// window is a one-span slice. Match offsets are absolute in ix.Data().
// The index must stay alive for the duration of the run.
func Windows(ix *Index, spans []Span) Input { return Input{kind: inWindows, ix: ix, spans: spans} }

// Reader is a stream of newline-delimited JSON records read from r, each
// evaluated as soon as its line is read. Blank lines are skipped and do
// not count as records. Memory use is bounded by the largest record
// (times the in-flight window under Workers).
func Reader(r io.Reader) Input { return Input{kind: inReader, r: r} }

// Option adjusts a run. The zero Option changes nothing.
type Option struct {
	workers   int
	explain   bool
	maxEvents int
}

// Workers evaluates the records of a sequence input with n goroutines,
// each running whole records (the paper's task-level parallelism,
// Figure 12). Matches still reach the sink in record order, and Stats
// equal a serial run's. n <= 1, and any single-record input, runs
// serially.
func Workers(n int) Option { return Option{workers: max(n, 1)} }

// Explain records up to maxEvents fast-forward movements
// (DefaultTraceEvents when maxEvents <= 0), retrievable via
// Stats.Trace. Explain runs use the same engines and produce the same
// matches; only the recording differs, so a slow query can be re-run
// verbatim to see why it moved the way it did. It applies to
// single-record inputs; on a record sequence Run fails before reading.
func Explain(maxEvents int) Option { return Option{explain: true, maxEvents: maxEvents} }

var errExplainSequence = errors.New("jsonski: Explain applies to single-record inputs (Bytes, Indexed)")

// record is one unit of evaluation: the JSON value in data, or, when ix
// is set, the window [lo, hi) of ix's buffer data.
type record struct {
	i      int
	data   []byte
	ix     *stream.Index
	lo, hi int
}

// size is the record's length in bytes.
func (r record) size() int {
	if r.ix != nil {
		return r.hi - r.lo
	}
	return len(r.data)
}

// run is the evaluation behind Query.Run and QuerySet.Run: it runs
// members in order over each record of in, delivering their spans to
// sink.
func run(ctx context.Context, members []*Query, in Input, sink Sink, opts []Option) (Stats, error) {
	workers, explain, maxEvents := 1, false, 0
	for _, o := range opts {
		if o.workers > 0 {
			workers = o.workers
		}
		if o.explain {
			explain, maxEvents = true, o.maxEvents
		}
	}
	if in.kind >= inRecords {
		if explain {
			return Stats{}, errExplainSequence
		}
		return runRecords(ctx, members, in, newSinkRun(sink), workers)
	}
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	rec := record{data: in.data}
	if in.kind == inIndexed {
		rec = record{data: in.ix.Data(), ix: in.ix.ix, hi: in.ix.Len()}
	}
	var tr *telemetry.Trace
	if explain {
		tr = telemetry.NewTrace(maxEvents)
	}
	sr := newSinkRun(sink)
	sr.begin(0, rec.data)
	var out Stats
	err := evalRecord(members, rec, sr, tr, &out)
	if tr != nil {
		out.trace = publicTrace(tr)
	}
	return out, sr.finish(err)
}

// spanTarget receives the spans of one record's members: member(i)
// announces member i and returns its span callback (nil to only count).
type spanTarget interface {
	member(i int) core.EmitFunc
}

// evalRecord runs each member over rec in set order, each with an
// engine from its own pool, adding their Stats to out. It stops at the
// first engine error.
func evalRecord(members []*Query, rec record, to spanTarget, tr *telemetry.Trace, out *Stats) error {
	for i, m := range members {
		e := m.pool.Get().(runner)
		if tr != nil {
			e.SetTrace(tr)
		}
		var st core.Stats
		var err error
		if rec.ix != nil {
			st, err = e.RunIndexedWindow(rec.ix, rec.lo, rec.hi, to.member(i))
		} else {
			st, err = e.Run(rec.data, to.member(i))
		}
		if tr != nil {
			e.SetTrace(nil)
		}
		m.pool.Put(e)
		out.add(st)
		if err != nil {
			return err
		}
	}
	return nil
}

// records returns an iterator over the records of a sequence input:
// each call of next yields the next record, or ok == false and the read
// error (nil at the end of the input). ready reports whether next can
// yield without waiting on the underlying reader.
func (in Input) records() (next func() (rec record, ok bool, err error), ready func() bool) {
	i := 0
	always := func() bool { return true }
	switch in.kind {
	case inRecords:
		return func() (record, bool, error) {
			if i == len(in.recs) {
				return record{}, false, nil
			}
			i++
			return record{i: i - 1, data: in.recs[i-1]}, true, nil
		}, always
	case inWindows:
		return func() (record, bool, error) {
			if i == len(in.spans) {
				return record{}, false, nil
			}
			sp := in.spans[i]
			i++
			return record{i: i - 1, data: in.ix.Data(), ix: in.ix.ix, lo: int(sp.Start), hi: int(sp.End)}, true, nil
		}, always
	}
	br := bufio.NewReaderSize(in.r, 1<<16)
	var pending error // a read error, reported after the line it ended
	next = func() (record, bool, error) {
		for pending == nil {
			// ReadBytes allocates each line afresh, so records can
			// cross goroutines.
			line, err := br.ReadBytes('\n')
			pending = err
			if line = bytes.TrimSpace(line); len(line) > 0 {
				i++
				return record{i: i - 1, data: line}, true, nil
			}
		}
		if pending == io.EOF {
			return record{}, false, nil
		}
		return record{}, false, pending
	}
	ready = func() bool {
		buf, _ := br.Peek(br.Buffered())
		return bytes.IndexByte(buf, '\n') >= 0
	}
	return next, ready
}

// result is one evaluated record of a sequence run: its Stats,
// evaluation time and engine error and, in a parallel run, the range of
// its buffered spans in its batch.
type result struct {
	rec    record
	st     Stats
	dur    time.Duration
	err    error
	lo, hi int // spans[lo:hi] of the batch
}

// A batch is a run of consecutive records that one worker evaluates in
// a parallel run, buffering their spans for in-order replay. Batching
// amortizes the hand-offs between goroutines over small records; a run
// recycles its 2×workers batches.
type batch struct {
	res   []result
	spans []int // member, start, end triples, records and members in order
	cur   int   // member being evaluated
	emit  core.EmitFunc
	done  chan struct{} // one token per evaluation
}

// Batch limits: a batch takes at most maxBatch records or, past the
// first, batchBytes of input, and only records already read.
const (
	maxBatch   = 64
	batchBytes = 64 << 10
)

func (b *batch) member(i int) core.EmitFunc {
	b.cur = i
	return b.emit // nil for a nil sink: nothing is buffered
}

func (b *batch) span(start, end int) { b.spans = append(b.spans, b.cur, start, end) }

// replay delivers result r's buffered spans to sr as a serial run would
// have: one Begin, then each member's spans in set order.
func (b *batch) replay(r *result, sr *sinkRun) {
	sr.begin(r.rec.i, r.rec.data)
	var emit core.EmitFunc
	for k, m := r.lo, -1; k < r.hi; k += 3 {
		if b.spans[k] != m {
			m = b.spans[k]
			emit = sr.member(m)
		}
		emit(b.spans[k+1], b.spans[k+2])
	}
}

// runRecords runs members over every record of a sequence input. There
// is one record loop for every worker count: records are read in order,
// evaluated, then delivered and counted in order. Serially a record's
// spans go straight to sr. With workers > 1 a pool evaluates batches of
// records concurrently, buffering their spans, and this goroutine
// replays them in record order, with at most 2×workers batches read but
// not yet delivered. A record counts in Stats once it is delivered; the
// first engine error, sink error, read error or cancellation stops
// dispatch, so serial and parallel runs return the same Stats.
func runRecords(ctx context.Context, members []*Query, in Input, sr *sinkRun, workers int) (Stats, error) {
	var (
		out Stats
		lat telemetry.Histogram
		err error
	)
	// Only a live stream is timed per record: the preloaded inputs are
	// the paper's benchmark surfaces and stay untimed.
	timed := in.kind == inReader
	eval := func(r *result, to spanTarget) {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		r.err = evalRecord(members, r.rec, to, nil, &r.st)
		if timed {
			r.dur = time.Since(t0)
		}
	}
	// deliver counts a delivered record, reporting whether the run goes on.
	deliver := func(r *result) bool {
		if timed {
			lat.Observe(r.dur)
		}
		out.merge(r.st)
		if r.err != nil {
			err = fmt.Errorf("record %d: %w", r.rec.i, r.err)
		}
		return err == nil && !sr.failed()
	}
	next, ready := in.records()
	if workers <= 1 {
		var r result // one per run: eval and deliver are closures, so r escapes
		for err == nil {
			if err = ctx.Err(); err != nil {
				break
			}
			rec, ok, rerr := next()
			if !ok {
				err = rerr
				break
			}
			r = result{rec: rec}
			sr.begin(rec.i, rec.data)
			eval(&r, sr)
			if !deliver(&r) {
				break
			}
		}
	} else if perr := runParallel(ctx, next, ready, sr, workers, eval, deliver); err == nil {
		err = perr
	}
	out.latency = latencyOf(&lat)
	return out, sr.finish(err)
}

// runParallel is the workers > 1 half of runRecords' loop. A dispatcher
// goroutine reads batches of records, a pool evaluates them, and the
// calling goroutine replays each record into sr and hands it to
// deliver, in record order. It returns the dispatcher's read or context
// error.
func runParallel(ctx context.Context, next func() (record, bool, error), ready func() bool, sr *sinkRun,
	workers int, eval func(*result, spanTarget), deliver func(*result) bool) error {
	free := make(chan *batch, 2*workers) // batches not read and in flight
	for i := 0; i < cap(free); i++ {
		b := &batch{done: make(chan struct{}, 1)}
		if sr != nil {
			b.emit = b.span
		}
		free <- b
	}
	order := make(chan *batch, cap(free))
	tasks := make(chan *batch, cap(free))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range tasks {
				for j := range b.res {
					r := &b.res[j]
					r.lo = len(b.spans)
					eval(r, b)
					r.hi = len(b.spans)
					if r.err != nil {
						b.res = b.res[:j+1] // the run stops here
						break
					}
				}
				b.done <- struct{}{}
			}
		}()
	}
	var readErr error
	go func() {
		defer close(order)
		defer close(tasks)
		for more := true; more; {
			var b *batch
			select {
			case b = <-free:
			case <-stop:
				return
			}
			select {
			case <-stop:
				return
			default:
			}
			b.res, b.spans = b.res[:0], b.spans[:0]
			for size := 0; len(b.res) < maxBatch && size < batchBytes && (len(b.res) == 0 || ready()); {
				if readErr = ctx.Err(); readErr != nil {
					more = false
					break
				}
				rec, ok, err := next()
				if !ok {
					readErr, more = err, false
					break
				}
				b.res = append(b.res, result{rec: rec})
				size += rec.size()
			}
			if len(b.res) > 0 {
				order <- b
				tasks <- b
			}
		}
	}()
	going := true
	for b := range order {
		<-b.done
		for j := 0; going && j < len(b.res); j++ {
			b.replay(&b.res[j], sr)
			if going = deliver(&b.res[j]); !going {
				close(stop)
			}
		}
		free <- b
	}
	wg.Wait()
	if !going {
		return nil // deliver recorded the error that stopped the run
	}
	return readErr
}

// latencyOf snapshots a per-record histogram for Stats.Latency, eliding
// empty runs.
func latencyOf(h *telemetry.Histogram) *LatencySnapshot {
	s := h.Snapshot()
	if s.Count == 0 {
		return nil
	}
	return latencyFromSnapshot(s)
}
