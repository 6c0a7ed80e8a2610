package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunOnFile(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.json")
	if err := os.WriteFile(f, []byte(`{"a": {"b": 7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.a.b", "", true, true, false, 1, false, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("missing query should error")
	}
	if err := run(ctx, "$..", "", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("bad query should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", "", []string{f, f}); err == nil {
		t.Fatal("two files should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", "", []string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestRunRecordsMode(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "$.v", "", true, false, true, 0, false, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMalformedInputFails(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"a": {"b": `), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(ctx, "$.a.b", "", false, false, false, 1, false, "", "", []string{bad})
	if err == nil || !strings.Contains(err.Error(), "query failed") {
		t.Fatalf("malformed JSON should fail clearly, got %v", err)
	}
}

func TestRunRecordsMalformedRecordNamesRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "bad.ndjson")
	in := "{\"v\": 1}\n{\"v\": {\n{\"v\": 3}\n"
	if err := os.WriteFile(f, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	// Serial so the failing record is deterministic.
	err := run(ctx, "$.v.x", "", false, false, true, 1, false, "", "", []string{f})
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSaveLoadIndex(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.json")
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte(`{"a": {"b": 7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Save evaluates and persists; load evaluates the embedded document.
	if err := run(ctx, "$.a.b", "", true, false, false, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(side); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	if err := run(ctx, "$.a.b", "", true, false, false, 1, false, "", side, nil); err != nil {
		t.Fatal(err)
	}

	// Flag validation.
	if err := run(ctx, "$.a", "", false, false, false, 1, false, side, side, nil); err == nil {
		t.Fatal("save+load together should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, true, side, "", []string{f}); err == nil {
		t.Fatal("explain with save-index should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", side, []string{f}); err == nil {
		t.Fatal("load-index with input file should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", filepath.Join(dir, "missing.jski"), nil); err == nil {
		t.Fatal("missing sidecar should error")
	}
}

func TestRunSaveLoadIndexRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n\n{\"v\":2}\n{\"v\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.v", "", true, true, true, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.v", "", true, true, true, 1, false, "", side, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunCancelledContext(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, "$.v", "", false, false, true, 1, false, "", "", []string{f})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v", err)
	}
	if errors.Is(err, context.Canceled) {
		// run wraps cancellation into a user-facing message; the cause
		// should no longer leak as a bare context error string.
		t.Log("cancellation cause preserved:", err)
	}
}

func TestRunGet(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.json")
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte(`{"a": {"b": [10, 20, 30]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "a.b[2]", false, true, false, 1, false, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
	// explain composes with -get
	if err := run(ctx, "", "a.b[0]", false, false, false, 1, true, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
	// -get over a sidecar index
	if err := run(ctx, "$.a.b", "", true, false, false, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "a.b[1]", false, false, false, 1, false, "", side, nil); err != nil {
		t.Fatal(err)
	}

	// flag validation and navigation failures
	if err := run(ctx, "$.a", "a.b", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("-q with -get should error")
	}
	if err := run(ctx, "", "a.b", false, false, true, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("-get with -records should error")
	}
	if err := run(ctx, "", "a.b", false, false, false, 1, false, side, "", []string{f}); err == nil {
		t.Fatal("-get with -save-index should error")
	}
	if err := run(ctx, "", "a.nope", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("missing path should error")
	}
	if err := run(ctx, "", "a.b[", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("malformed path should error")
	}
}

// TestRecordsOutputIndependentOfWorkers pins ordered delivery: matches
// of a multi-record input print in record order, so -workers 4 writes
// byte for byte what -workers 1 does, whether the records stream from
// the file or run as windows of a -load-index sidecar.
func TestRecordsOutputIndependentOfWorkers(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	side := filepath.Join(dir, "in.jski")
	var in strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&in, "{\"pad\": %q, \"v\": [%d, %d]}\n", strings.Repeat("x", i%97), i, -i)
	}
	if err := os.WriteFile(f, []byte(in.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	// stdout runs the command with the given worker count and returns
	// what it printed.
	stdout := func(workers int, loadIx string, args ...string) string {
		t.Helper()
		out, err := os.Create(filepath.Join(dir, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		saved := os.Stdout
		os.Stdout = out
		err = run(ctx, "$.v[*]", "", false, false, true, workers, false, "", loadIx, args)
		os.Stdout = saved
		if err != nil {
			t.Fatalf("-workers %d: %v", workers, err)
		}
		b, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := stdout(1, "", f)
	if !strings.HasPrefix(serial, "0\n0\n1\n-1\n2\n-2\n") || strings.Count(serial, "\n") != 800 {
		t.Fatalf("serial output %.40q... has %d lines, want 800 in record order", serial, strings.Count(serial, "\n"))
	}
	if got := stdout(4, "", f); got != serial {
		t.Fatal("-records -workers 4 output differs from -workers 1")
	}
	if err := run(ctx, "$.v", "", true, false, true, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if got := stdout(workers, side); got != serial {
			t.Fatalf("-load-index -records -workers %d output differs from the streamed run", workers)
		}
	}
}
