package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenanceInfo identifies the host, the code and the inputs of a run,
// so results from different hosts or commits are never compared by
// accident.
type provenanceInfo struct {
	CPUModel     string         `json:"cpu_model"`
	AVX2         bool           `json:"avx2"`
	AVX512       bool           `json:"avx512"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	Dirty        bool           `json:"dirty"`
	SourceSHA256 string         `json:"source_sha256"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Inputs       []inputSummary `json:"inputs,omitempty"`
}

// inputSummary is one generated input's size and Table 4 shape.
type inputSummary struct {
	Name       string `json:"name"`
	Bytes      int64  `json:"bytes"`
	Objects    int64  `json:"objects"`
	Arrays     int64  `json:"arrays"`
	Attributes int64  `json:"attributes"`
	Primitives int64  `json:"primitives"`
	MaxDepth   int    `json:"max_depth"`
}

func provenance(cfg config) *provenanceInfo {
	p := &provenanceInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Workload:   cfg.workload,
		Seed:       cfg.seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if p.CPUModel == "" {
					p.CPUModel = strings.TrimSpace(v)
				}
			case "flags":
				for _, fl := range strings.Fields(v) {
					p.AVX2 = p.AVX2 || fl == "avx2"
					p.AVX512 = p.AVX512 || fl == "avx512f"
				}
			}
		}
		f.Close()
	}
	// A checkout exported without git history has no commit; the source
	// hash identifies the code either way.
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", cfg.root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			p.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	p.SourceSHA256 = sourceHash(cfg.root)
	return p
}

// sourceHash hashes every Go source and module file under root, in
// path order, skipping build output.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.work") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printProvenance(p *provenanceInfo) {
	b, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Println(string(b))
}
