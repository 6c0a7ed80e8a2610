package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is a jsonskid process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// addrWriter receives the daemon's standard error and reports the
// listen address from its "listening on" line.
type addrWriter struct {
	once sync.Once
	addr chan string
	buf  bytes.Buffer
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.Reset()
			w.buf.WriteString(line)
			return len(p), nil
		}
		if _, a, ok := strings.Cut(strings.TrimSpace(line), "listening on "); ok {
			w.once.Do(func() { w.addr <- a })
		}
	}
}

// startDaemon starts jsonskid with two workers and returns once
// /readyz answers 200, with the time from process start to then.
func startDaemon(bin string, extra ...string) (*daemon, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-log-level", "off"}, extra...)
	cmd := exec.Command(bin, args...)
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd.Stderr = aw
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start jsonskid: %w", err)
	}
	d := &daemon{cmd: cmd}
	select {
	case a := <-aw.addr:
		d.base = "http://" + a
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, 0, errors.New("jsonskid did not report its address")
	}
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("jsonskid not ready: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop shuts the daemon down gracefully and waits for it to exit,
// killing it if it has not within five seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// query POSTs a case's body to /query and checks the NDJSON answer:
// one {"record":n,"value":v} line per match.
func (d *daemon) query(c *http.Client, pc *probeCase) error {
	u := d.base + "/query?path=" + url.QueryEscape(pc.expr)
	ct := "application/x-ndjson"
	if !pc.ndjson {
		ct = "application/json"
	}
	resp, err := c.Post(u, ct, bytes.NewReader(pc.body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: HTTP %d: %s", pc.id, resp.StatusCode, bytes.TrimSpace(b))
	}
	var got answer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		rest, ok := bytes.CutPrefix(line, []byte(`{"record":`))
		if !ok {
			return fmt.Errorf("%s: unexpected line %.100q", pc.id, line)
		}
		i := bytes.IndexByte(rest, ',')
		if i < 0 {
			return fmt.Errorf("%s: unexpected line %.100q", pc.id, line)
		}
		v, ok := bytes.CutPrefix(rest[i:], []byte(`,"value":`))
		if !ok || !bytes.HasSuffix(v, []byte("}")) {
			return fmt.Errorf("%s: error line %.200q", pc.id, line)
		}
		got.add(v[:len(v)-1])
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return pc.check(got)
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Requests struct {
		Query int64 `json:"query"`
	} `json:"requests"`
	Cache struct {
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	Workers struct {
		QueueDepth int `json:"queue_depth"`
	} `json:"workers"`
	Latency struct {
		Query  serverLatency `json:"query"`
		Record serverLatency `json:"record"`
	} `json:"latency"`
}

type serverLatency struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	P50Ns int64 `json:"p50_ns"`
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, err
}

func (d *daemon) metrics() (serverMetrics, error) {
	var m serverMetrics
	b, err := d.get("/metrics")
	if err == nil {
		err = json.Unmarshal(b, &m)
	}
	return m, err
}

// memstats reads the daemon's runtime.MemStats from the heap profile's
// debug text (jsonskid -pprof).
func (d *daemon) memstats() (runtimeSample, error) {
	b, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return runtimeSample{}, err
	}
	var s runtimeSample
	fields := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok {
			fields[k] = v
		}
	}
	mallocs, err1 := strconv.ParseUint(fields["Mallocs"], 10, 64)
	numGC, err2 := strconv.ParseUint(fields["NumGC"], 10, 32)
	pauses := strings.Fields(strings.Trim(fields["PauseNs"], "[]"))
	if err := errors.Join(err1, err2); err != nil || len(pauses) != len(s.pauses) {
		return s, fmt.Errorf("heap profile memstats: %v (%d pauses)", err, len(pauses))
	}
	s.mallocs, s.numGC = mallocs, uint32(numGC)
	for i, f := range pauses {
		if s.pauses[i], err = strconv.ParseUint(f, 10, 64); err != nil {
			return s, fmt.Errorf("heap profile PauseNs: %w", err)
		}
	}
	return s, nil
}

// stepResult is one open-loop run at a fixed rate. Latency counts from
// when a request was due; late is how far behind schedule the
// generator sent it; service is send to response.
type stepResult struct {
	rate               float64
	lat, late, service []float64 // ms, per request
	failed             int64
	errs               []string
	backlog            bool          // the last quarter of requests left more than the limit late
	elapsed            time.Duration // from the first due time to the last response
}

// achieved is the completed requests per second: the offered rate
// below capacity, the daemon's capacity above it.
func (s stepResult) achieved() float64 { return float64(len(s.lat)) / s.elapsed.Seconds() }

// merge pools another run at the same rate into s.
func (s *stepResult) merge(o stepResult) {
	s.rate = o.rate
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.service = append(s.service, o.service...)
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.backlog = s.backlog || o.backlog
	s.elapsed += o.elapsed
}

// openLoop sends n requests at a fixed rate over two connections: the
// i-th is due at start+i/rate and goes out on whichever connection is
// free, so a stall shows as lateness and as latency of the requests
// behind it.
func (d *daemon) openLoop(rate float64, n int, pick func(i int) *probeCase) stepResult {
	res := stepResult{rate: rate, lat: make([]float64, n), late: make([]float64, n), service: make([]float64, n)}
	errs := make([]error, n)
	var next atomic.Int64
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				errs[i] = d.query(c, pick(i))
				done := time.Now()
				res.lat[i] = ms(done.Sub(due))
				res.late[i] = ms(sent.Sub(due))
				res.service[i] = ms(done.Sub(sent))
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for i, err := range errs {
		if err != nil {
			res.failed++
			if len(res.errs) < 5 {
				res.errs = append(res.errs, fmt.Sprintf("request %d: %v", i, err))
			}
		}
	}
	q := max(n/4, 1)
	res.backlog = median(res.late[n-q:]) > latencyLimitMs
	return res
}

// latencyLimitMs is the serving limit on the tail latency, and
// limitQuantile the tail it applies to. The limit is on p90, not p99:
// on a 2-vCPU host shared by client and daemon, the p99 of one rate did
// not repeat within a tenth across runs (9.9, 8.8 and 16.8 ms at 500/s
// on seeds 1-3), while p90 did.
const (
	latencyLimitMs = 10
	limitQuantile  = 0.90
)

// tail is the step's latency at limitQuantile.
func (s stepResult) tail() float64 { return quantile(s.lat, limitQuantile) }

// meets reports whether the step kept its tail within the limit with no
// growing backlog and no failures.
func (s stepResult) meets() bool {
	return s.failed == 0 && s.tail() <= latencyLimitMs && !s.backlog
}
