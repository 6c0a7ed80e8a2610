package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"jsonski/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current output")

// goldenValues are the JSON key paths whose values a fixed workload
// determines exactly. Every other leaf (uptime, build info, latencies,
// byte counts on the wire, ratios) is masked to its JSON type in the
// fixture; its path, position and type are still pinned.
var goldenValues = map[string]bool{
	"requests.query": true, "requests.multi": true, "requests.doc": true, "requests.errors": true,
	"engine.records": true, "engine.record_errors": true, "engine.matches": true,
	"engine.input_bytes": true, "engine.skipped_bytes": true, "engine.scanned_bytes": true,
	"cache.hits": true, "cache.misses": true, "cache.evictions": true,
	"index_cache.enabled": true, "index_cache.hits": true, "index_cache.misses": true, "index_cache.evictions": true,
	"catalog.enabled": true, "trace.enabled": true,
}

// TestMetricsExpositionGolden drives a fixed workload through two
// servers — the default configuration (index cache on, catalog and
// tracing off) and one with every optional feature on — and pins both
// metrics surfaces against testdata/exposition.golden:
//
//   - /metrics: every JSON key path in document order, with the values
//     of the deterministic counters;
//   - /metrics/prom: the set of # HELP / # TYPE lines and sample label
//     sets (le bounds and build-info label values masked), sorted, so
//     family order is free but names, help text, types, labels and the
//     gating of optional families are not.
//
// Regenerate with: go test ./internal/server -run ExpositionGolden -update
func TestMetricsExpositionGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"default", Config{Workers: 2}},
		{"all-features", Config{Workers: 2, IndexDir: t.TempDir(),
			Tracer: telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: 1})}},
	} {
		_, ts := newTestServer(t, c.cfg)
		exposeWorkload(t, ts.URL)
		fmt.Fprintf(&out, "== %s /metrics\n", c.name)
		writeJSONPaths(t, &out, fetch(t, ts.URL+"/metrics"))
		fmt.Fprintf(&out, "== %s /metrics/prom\n", c.name)
		writePromShape(&out, fetch(t, ts.URL+"/metrics/prom"))
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("metrics exposition differs from %s (rerun with -update to inspect the diff):\n%s", golden, lineDiff(string(want), got))
	}
}

// exposeWorkload is the fixed workload: an NDJSON /query with one
// malformed record (run twice, so the compiled-query cache hits), a
// /multi, and a single-document /query twice (an index-cache miss, then
// a hit).
func exposeWorkload(t *testing.T, base string) {
	t.Helper()
	q := url.QueryEscape
	ndjson := `{"user": {"id": 1, "tags": ["a", "b"]}, "pad": [1, 2, 3]}` + "\n" +
		`{"skip": {"deep": [1, {"x": 2}], "s": "str"}, "user": {"id": 2}}` + "\n" +
		`{"user": {"id": ` + "\n" +
		`{"user": {"name": "n", "id": 4}}` + "\n"
	for i := 0; i < 2; i++ {
		if code, body := post(t, base+"/query?path="+q("$.user.id"), "application/x-ndjson", ndjson); code != http.StatusOK {
			t.Fatalf("ndjson /query: %d %s", code, body)
		}
	}
	if code, body := post(t, base+"/multi?path="+q("$.a")+"&path="+q("$.b[1]"), "application/x-ndjson",
		`{"a": 1, "b": [0, 2]}`+"\n"+`{"b": [3, 4, 5], "z": {"a": 9}}`+"\n"); code != http.StatusOK {
		t.Fatalf("/multi: %d %s", code, body)
	}
	doc := `{"meta": {"skip": [1, 2, 3], "pad": "` + strings.Repeat("x", 200) + `"}, "doc": {"v": 7}}`
	for i := 0; i < 2; i++ {
		if code, body := post(t, base+"/query?path="+q("$.doc.v"), "application/json", doc); code != http.StatusOK {
			t.Fatalf("single-document /query: %d %s", code, body)
		}
	}
}

func fetch(t *testing.T, u string) []byte {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", u, resp.StatusCode, b)
	}
	return b
}

// writeJSONPaths writes one line per JSON leaf, in document order:
// "path value" when the path is in goldenValues, "path <type>" otherwise.
// Array elements are written as path[i] and share their array's mask.
func writeJSONPaths(t *testing.T, w io.Writer, doc []byte) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("decode /metrics at %q: %v", path, err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				k, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				key := k.(string)
				if path != "" {
					key = path + "." + key
				}
				walk(key)
			}
			dec.Token() // '}'
		case json.Delim('['):
			for i := 0; dec.More(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i))
			}
			dec.Token() // ']'
		default:
			var v string
			switch tok.(type) {
			case json.Number:
				v = "<number>"
			case string:
				v = "<string>"
			case bool:
				v = "<bool>"
			}
			if goldenValues[strings.Split(path, "[")[0]] {
				v = fmt.Sprint(tok)
			}
			fmt.Fprintf(w, "%s %s\n", path, v)
		}
	}
	walk("")
}

// writePromShape writes the sorted, de-duplicated set of HELP/TYPE lines
// and sample signatures (name plus label pairs; le and build-info label
// values masked) of a Prometheus exposition.
func writePromShape(w io.Writer, text []byte) {
	seen := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			name, labels := line[:strings.IndexAny(line, "{ ")], ""
			if i := strings.IndexByte(line, '{'); i >= 0 {
				var kept []string
				for _, pair := range splitLabels(line[i+1 : strings.LastIndexByte(line, '}')]) {
					k := pair[:strings.IndexByte(pair, '=')]
					switch {
					case k == "le":
						continue
					case name == "jsonski_build_info":
						pair = k + "=*"
					}
					kept = append(kept, pair)
				}
				labels = "{" + strings.Join(kept, ",") + "}"
			}
			line = name + labels
		}
		seen[line] = true
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	count := func(s string) map[string]int {
		m := map[string]int{}
		for _, l := range strings.Split(s, "\n") {
			m[l]++
		}
		return m
	}
	w, g := count(want), count(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if g[l] < w[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if w[l] < g[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
