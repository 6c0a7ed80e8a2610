package server

import (
	"net/http"
	"net/url"
	"testing"
	"time"
)

// TestHostileBodiesDoNotWedgeServer posts the 15-byte input that used to
// spin the engines and the on-demand iterators to every evaluating
// endpoint, each under a deadline, then checks that the workers are
// still free to serve a well-formed request and that /metrics counted
// each bad record.
func TestHostileBodiesDoNotWedgeServer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const hostile = `{"":,"":[""""}`
	q := url.QueryEscape
	for _, c := range []struct {
		name, url, contentType string
		wantStatus             int
	}{
		{"query", ts.URL + "/query?path=" + q("$..*"), "application/x-ndjson", http.StatusOK},
		{"multi", ts.URL + "/multi?path=" + q("$..*") + "&path=" + q("$.*[*]"), "application/x-ndjson", http.StatusOK},
		{"doc", ts.URL + "/doc?get=" + q("x"), "application/json", http.StatusBadRequest},
	} {
		done := make(chan int, 1)
		go func() {
			code, _ := post(t, c.url, c.contentType, hostile+"\n")
			done <- code
		}()
		select {
		case code := <-done:
			if code != c.wantStatus {
				t.Errorf("%s: status %d, want %d", c.name, code, c.wantStatus)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: no response after 3s (a worker is wedged)", c.name)
		}
	}

	code, body := post(t, ts.URL+"/query?path="+q("$.v"), "application/x-ndjson", `{"v": 1}`+"\n")
	if code != http.StatusOK || body != `{"record":0,"value":1}`+"\n" {
		t.Fatalf("well-formed /query after hostile bodies: status %d body %q", code, body)
	}
	if got := getMetrics(t, ts.URL).Engine.RecordErrors; got != 3 {
		t.Errorf("engine.record_errors = %d, want 3 (one per hostile body)", got)
	}
}
