package jsonski

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

func ndjsonInput(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"pad": "%s", "v": %d}`, strings.Repeat("x", i%40), i)
		sb.WriteByte('\n')
		if i%7 == 0 {
			sb.WriteString("\n") // blank lines are skipped
		}
	}
	return sb.String()
}

func TestRunReader(t *testing.T) {
	q := MustCompile("$.v")
	var got []string
	st, err := q.Run(context.Background(), Reader(strings.NewReader(ndjsonInput(50))), FuncSink(func(m Match) {
		got = append(got, fmt.Sprintf("%d:%s", m.Record, m.Value))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 50 || len(got) != 50 {
		t.Fatalf("matches = %d, got %d values", st.Matches, len(got))
	}
	if got[0] != "0:0" || got[49] != "49:49" {
		t.Fatalf("got[0]=%q got[49]=%q", got[0], got[49])
	}
}

func TestRunReaderNoTrailingNewline(t *testing.T) {
	q := MustCompile("$.v")
	in := `{"v": 1}` + "\n" + `{"v": 2}` // no trailing \n
	st, err := q.Run(context.Background(), Reader(strings.NewReader(in)), nil)
	if err != nil || st.Matches != 2 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunReaderLongLines(t *testing.T) {
	q := MustCompile("$.v")
	big := strings.Repeat("y", 200000)
	in := fmt.Sprintf(`{"pad": "%s", "v": 9}%s{"v": 10}`, big, "\n")
	st, err := q.Run(context.Background(), Reader(strings.NewReader(in)), nil)
	if err != nil || st.Matches != 2 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunReaderMalformedRecord(t *testing.T) {
	q := MustCompile("$.v.x")
	in := `{"v": {"x": 1}}` + "\n" + `{"v": {` + "\n"
	if _, err := q.Run(context.Background(), Reader(strings.NewReader(in)), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunReaderParallel(t *testing.T) {
	q := MustCompile("$.v")
	const n = 300
	var recs []int
	st, err := q.Run(context.Background(), Reader(strings.NewReader(ndjsonInput(n))), FuncSink(func(m Match) {
		recs = append(recs, m.Record)
	}), Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != n || len(recs) != n {
		t.Fatalf("matches = %d, delivered %d", st.Matches, len(recs))
	}
	for i, r := range recs {
		if r != i {
			t.Fatalf("recs[%d] = record %d, want record order", i, r)
		}
	}
}

// lineReader serves one NDJSON line per Read, so the lines it has
// served count the records a run has read.
type lineReader struct {
	lines  [][]byte
	served int
}

func (r *lineReader) Read(p []byte) (int, error) {
	if r.served == len(r.lines) {
		return 0, io.EOF
	}
	n := copy(p, r.lines[r.served])
	r.served++
	return n, nil
}

// TestRunReaderStopsAtFirstError pins that a malformed record stops
// dispatch, serially and in parallel: after a bad record 0 the run reads
// at most the in-flight window of the valid ones behind it, and the
// error names record 0. The reader trickles one line per Read, so each
// parallel batch is one record and the window is 2×workers records.
func TestRunReaderStopsAtFirstError(t *testing.T) {
	q := MustCompile("$.v.x")
	for _, workers := range []int{1, 2, 4} {
		lines := [][]byte{[]byte("{\"v\": {\n")}
		for i := 0; i < 1000; i++ {
			lines = append(lines, []byte(fmt.Sprintf("{\"v\": {\"x\": %d}}\n", i)))
		}
		r := &lineReader{lines: lines}
		_, err := q.Run(context.Background(), Reader(r), nil, Workers(workers))
		if err == nil || !strings.HasPrefix(err.Error(), "record 0: ") {
			t.Fatalf("Workers(%d): err = %v, want record 0", workers, err)
		}
		window := 2 * workers
		if workers == 1 {
			window = 1 // the serial loop reads a record only after the last one
		}
		if r.served > window {
			t.Fatalf("Workers(%d): read %d records after a bad record 0, want at most %d", workers, r.served, window)
		}
	}
}

func TestRunReaderParallelSerialFallback(t *testing.T) {
	q := MustCompile("$.v")
	st, err := q.Run(context.Background(), Reader(strings.NewReader(`{"v":1}`)), nil, Workers(1))
	if err != nil || st.Matches != 1 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunReaderContextCancelled(t *testing.T) {
	q := MustCompile("$.v")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := q.Run(ctx, Reader(strings.NewReader(ndjsonInput(10))), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	_, err = q.Run(ctx, Reader(strings.NewReader(ndjsonInput(10))), nil, Workers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v", err)
	}
}

func TestRunReaderContextCancelMidStream(t *testing.T) {
	q := MustCompile("$.v")
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	st, err := q.Run(ctx, Reader(strings.NewReader(ndjsonInput(100))), FuncSink(func(m Match) {
		n++
		if n == 3 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st.Matches != 3 || n != 3 {
		t.Fatalf("processed %d records after cancel (stats %d)", n, st.Matches)
	}
}

func TestRunReaderErrorNamesRecord(t *testing.T) {
	q := MustCompile("$.v.x")
	in := `{"v": {"x": 1}}` + "\n" + `{"v": {` + "\n"
	_, err := q.Run(context.Background(), Reader(strings.NewReader(in)), nil)
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

type failingReader struct{ data io.Reader }

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.data.Read(p)
	if err == io.EOF {
		return n, fmt.Errorf("socket reset")
	}
	return n, err
}

func TestRunReaderPropagatesReadError(t *testing.T) {
	q := MustCompile("$.v")
	_, err := q.Run(context.Background(), Reader(&failingReader{strings.NewReader("{\"v\":1}\n")}), nil)
	if err == nil || !strings.Contains(err.Error(), "socket reset") {
		t.Fatalf("err = %v", err)
	}
	_, err = q.Run(context.Background(), Reader(&failingReader{strings.NewReader("{\"v\":1}\n")}), nil, Workers(4))
	if err == nil {
		t.Fatal("parallel read error not propagated")
	}
}
