package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"jsonski"
	"jsonski/internal/gen"
)

// smokeConfig is a workload run small enough for go test -short.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, 7, 0.5, trace
	cfg.root, cfg.work, cfg.jsonskid = "..", t.TempDir(), jsonskidBinary(t)
	cfg.largeBytes, cfg.hotBytes, cfg.bodyBytes = 256<<10, 128<<10, 16<<10
	cfg.rates = []float64{20, 40, 60}
	return cfg
}

// binDir holds the jsonskid the tests build, once per test binary.
var binDir string

func TestMain(m *testing.M) {
	var err error
	if binDir, err = os.MkdirTemp("", "perfbench-test"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func jsonskidBinary(t *testing.T) string {
	out := filepath.Join(binDir, "jsonskid")
	if _, err := os.Stat(out); err == nil {
		return out
	}
	cmd := exec.Command("go", "build", "-o", out, "jsonski/cmd/jsonskid")
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build jsonskid: %v\n%s", err, b)
	}
	return out
}

// contract reads the metric declarations of BENCHMARK.json.
func contract(t *testing.T) (e2e, layers []metricDef) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range c.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	return e2e, layers
}

func TestMetricsMatchContract(t *testing.T) {
	e2e, layers := contract(t)
	for _, pair := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layers}} {
		if len(pair.got) != len(pair.want) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", pair.name, len(pair.got), len(pair.want))
			continue
		}
		for i := range pair.got {
			if pair.got[i] != pair.want[i] {
				t.Errorf("%s[%d]: program declares %+v, BENCHMARK.json %+v", pair.name, i, pair.got[i], pair.want[i])
			}
		}
	}
}

// TestSmoke runs every workload untraced and traced at a fixed seed and
// checks that each declared metric is emitted, finite, with its unit,
// and that no operation failed.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"large", "hot", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			rep, err := workloads[w](cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			res, err := finish(cfg, rep)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: attempted %d failed %d, notes %v", w, trace, res.Attempted, res.Failed, rep.notes)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %+v, want a finite value in %s", w, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if trace && rep.metrics["ff.filter_identity_gap_bytes"] == 0 {
				t.Errorf("%s: filter identity gap not reported", w)
			}
		}
	}
}

// TestWrongAnswerFails corrupts the reference of one case in each
// workload and expects the run to count failed operations.
func TestWrongAnswerFails(t *testing.T) {
	for _, w := range []string{"large", "hot", "serve"} {
		cfg := smokeConfig(t, w, false)
		cfg.corrupt = true
		rep, err := workloads[w](cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.failed == 0 {
			t.Errorf("%s: corrupted reference, but no operation failed (%d attempted)", w, rep.attempted)
		}
	}
}

func TestLookupCheck(t *testing.T) {
	doc, err := gen.Generate("bb", 64<<10, 3)
	if err != nil {
		t.Fatal(err)
	}
	lks, err := pickLookups(doc, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix := jsonski.BuildIndex(doc)
	defer ix.Release()
	for _, lk := range lks {
		if err := lk.check(ix); err != nil {
			t.Error(err)
		}
		bad := lk
		bad.want = "not the value"
		if bad.check(ix) == nil {
			t.Errorf("lookup %v: wrong reference accepted", lk.path)
		}
	}
}

// TestInputsRepeat checks that one seed yields identical inputs and
// another seed different ones.
func TestInputsRepeat(t *testing.T) {
	gen1 := func(seed int64) map[string][]byte {
		docs, err := genLarge(newReport(), 64<<10, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		return docs
	}
	a, b, c := gen1(5), gen1(5), gen1(6)
	for _, ds := range gen.Names {
		if !bytes.Equal(a[ds], b[ds]) {
			t.Errorf("%s: seed 5 generated different inputs on two runs", ds)
		}
		if bytes.Equal(a[ds], c[ds]) {
			t.Errorf("%s: seeds 5 and 6 generated the same input", ds)
		}
	}
}
