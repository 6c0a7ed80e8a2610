package jsonski

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"sync"
	"time"

	"jsonski/internal/core"
	"jsonski/internal/telemetry"
)

// RunReader streams newline-delimited JSON records from r, evaluating the
// query against each record as soon as its line is read. Blank lines are
// skipped. Match.Value aliases an internal per-record buffer that remains
// valid only for the duration of the callback.
//
// This is the record-sequence scenario of the paper (Figures 11 and 12)
// lifted from preloaded buffers to a true input stream; memory use is
// bounded by the largest single record.
func (q *Query) RunReader(r io.Reader, fn func(Match)) (Stats, error) {
	return q.RunReaderContext(context.Background(), r, fn)
}

// RunReaderContext is RunReader with cancellation: the loop stops between
// records as soon as ctx is done and returns ctx.Err() (records are never
// abandoned mid-evaluation, so the abort granularity is one record).
// Engine errors are wrapped with the index of the offending record.
func (q *Query) RunReaderContext(ctx context.Context, r io.Reader, fn func(Match)) (Stats, error) {
	return q.runReader(ctx, r, newSinkRun(fnSink(fn)))
}

// RunReaderSink streams newline-delimited JSON records from r into sink:
// one Begin per record carrying the record index, spans delivered as
// they are found, Flush at the end of the stream. Combined with a
// StreamSink this is the zero-copy NDJSON path — matched values flow
// from the record buffer straight to the writer.
func (q *Query) RunReaderSink(ctx context.Context, r io.Reader, sink Sink) (Stats, error) {
	return q.runReader(ctx, r, newSinkRun(sink))
}

func (q *Query) runReader(ctx context.Context, r io.Reader, sr *sinkRun) (Stats, error) {
	e := q.pool.Get().(runner)
	defer q.pool.Put(e)
	br := bufio.NewReaderSize(r, 1<<16)
	var out Stats
	var lat telemetry.Histogram
	recno := 0
	for {
		if err := ctx.Err(); err != nil {
			out.latency = readerLatency(&lat)
			return out, sr.finish(err)
		}
		line, err := readLine(br)
		if len(line) > 0 {
			t0 := time.Now()
			st, rerr := e.Run(line, sr.bind(recno, line))
			lat.Observe(time.Since(t0))
			out.add(st)
			if rerr != nil {
				out.latency = readerLatency(&lat)
				return out, sr.finish(wrapRecordErr(recno, rerr))
			}
			if sr.err != nil {
				// The sink's destination is broken: stop reading.
				out.latency = readerLatency(&lat)
				return out, sr.finish(nil)
			}
			recno++
		}
		if err == io.EOF {
			out.latency = readerLatency(&lat)
			return out, sr.finish(nil)
		}
		if err != nil {
			out.latency = readerLatency(&lat)
			return out, sr.finish(err)
		}
	}
}

// readerLatency snapshots a per-record histogram for Stats.Latency,
// eliding empty runs.
func readerLatency(h *telemetry.Histogram) *LatencySnapshot {
	s := h.Snapshot()
	if s.Count == 0 {
		return nil
	}
	return latencyFromSnapshot(s)
}

// RunReader streams newline-delimited JSON records from r, evaluating
// every query of the set against each record as soon as its line is
// read: member by member in set order, each member's matches in
// document order. Blank lines are skipped. SetMatch.Value aliases an
// internal per-record buffer that remains valid only for the duration
// of the callback.
func (qs *QuerySet) RunReader(r io.Reader, fn func(SetMatch)) (Stats, error) {
	return qs.RunReaderContext(context.Background(), r, fn)
}

// RunReaderContext is the QuerySet RunReader with cancellation: the
// loop stops between records as soon as ctx is done and returns
// ctx.Err(). Engine errors are wrapped with the index of the offending
// record.
func (qs *QuerySet) RunReaderContext(ctx context.Context, r io.Reader, fn func(SetMatch)) (Stats, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var out Stats
	var lat telemetry.Histogram
	done := func(err error) (Stats, error) {
		out.latency = readerLatency(&lat)
		return out, err
	}
	recno := 0
	for {
		if err := ctx.Err(); err != nil {
			return done(err)
		}
		line, err := readLine(br)
		if len(line) > 0 {
			t0 := time.Now()
			st, rerr := qs.runRecord(line, nil, setEmit(line, recno, fn))
			lat.Observe(time.Since(t0))
			out.merge(st)
			if rerr != nil {
				return done(wrapRecordErr(recno, rerr))
			}
			recno++
		}
		if err == io.EOF {
			return done(nil)
		}
		if err != nil {
			return done(err)
		}
	}
}

// readLine reads one newline-terminated record, handling lines longer
// than the buffered reader's internal buffer and trimming whitespace.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	return bytes.TrimSpace(line), err
}

// RunReaderParallel is RunReader with a pool of `workers` goroutines,
// each evaluating whole records (the paper's task-level parallelism).
// fn may be invoked concurrently. Record indexes reflect input order;
// callback order is unspecified.
func (q *Query) RunReaderParallel(r io.Reader, workers int, fn func(Match)) (Stats, error) {
	return q.RunReaderParallelContext(context.Background(), r, workers, fn)
}

// RunReaderParallelContext is RunReaderParallel with cancellation: once
// ctx is done no further records are dispatched, in-flight records drain,
// and ctx.Err() is returned.
func (q *Query) RunReaderParallelContext(ctx context.Context, r io.Reader, workers int, fn func(Match)) (Stats, error) {
	if workers <= 1 {
		return q.RunReaderContext(ctx, r, fn)
	}
	type task struct {
		rec []byte
		i   int
	}
	ch := make(chan task, workers*2)
	var (
		wg      sync.WaitGroup
		accum   core.StatsAccum
		lat     telemetry.Histogram // atomic: shared across workers
		errOnce sync.Once
		outErr  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := q.pool.Get().(runner)
			defer q.pool.Put(e)
			for t := range ch {
				var emit func(s, en int)
				if fn != nil {
					t := t
					emit = func(s, en int) {
						fn(Match{Start: s, End: en, Value: t.rec[s:en], Record: t.i})
					}
				}
				t0 := time.Now()
				st, err := e.Run(t.rec, emit)
				lat.Observe(time.Since(t0))
				accum.Add(st)
				if err != nil {
					errOnce.Do(func() { outErr = wrapRecordErr(t.i, err) })
				}
			}
		}()
	}
	br := bufio.NewReaderSize(r, 1<<16)
	recno := 0
	var readErr error
dispatch:
	for {
		if err := ctx.Err(); err != nil {
			readErr = err
			break
		}
		line, err := readLine(br)
		if len(line) > 0 {
			// ReadBytes allocates a fresh slice per line, so records
			// can safely cross goroutines.
			select {
			case ch <- task{rec: line, i: recno}:
			case <-ctx.Done():
				readErr = ctx.Err()
				break dispatch
			}
			recno++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
	}
	close(ch)
	wg.Wait()
	var out Stats
	out.add(accum.Load())
	out.latency = readerLatency(&lat)
	if outErr == nil {
		outErr = readErr
	}
	return out, outErr
}
