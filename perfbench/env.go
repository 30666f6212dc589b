package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// Env records the machine and code a run measured.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUQuota   string `json:"cgroup_cpu_quota"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func readEnv(repoRoot string) Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUQuota:   cgroupQuota(),
		GoVersion:  runtime.Version(),
		Commit:     commit(repoRoot),
		SourceHash: sourceHash(repoRoot),
	}
}

// check refuses a run whose scheduler may place more runnable threads
// than there are CPUs: its timings would measure time-slicing.
func (e Env) check() error {
	if e.GOMAXPROCS > e.NumCPU {
		return fmt.Errorf("GOMAXPROCS %d exceeds NumCPU %d; rerun with GOMAXPROCS<=%d", e.GOMAXPROCS, e.NumCPU, e.NumCPU)
	}
	return nil
}

// cgroupQuota reports the CPU quota of the process's cgroup as
// "<quota_us>/<period_us>", "max" when unlimited, or "unknown".
func cgroupQuota() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(b))
		if len(f) == 2 {
			if f[0] == "max" {
				return "max"
			}
			return f[0] + "/" + f[1]
		}
	}
	q, errQ := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, errP := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if errQ == nil && errP == nil {
		qs, ps := strings.TrimSpace(string(q)), strings.TrimSpace(string(p))
		if qs == "-1" {
			return "max"
		}
		return qs + "/" + ps
	}
	return "unknown"
}

// commit names the measured revision: the build's VCS stamp, else the
// checkout's .git HEAD, else "unknown" (the source hash still
// identifies the code).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}

// sourceHash digests the measured module's Go sources and go.mod, so
// two runs can be matched to the same code without version control.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench":
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
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
	return hex.EncodeToString(h.Sum(nil))[:16]
}
