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
	"strings"
)

// stamp identifies a run: the machine, the inputs, the source measured
// and the virtual-clock outputs it pinned.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	// Slowdown is the untraced pass's reference time over refNominal:
	// how much slower than nominal the machine ran.
	Slowdown    float64           `json:"slowdown"`
	Repetitions int               `json:"repetitions"`
	Setups      int               `json:"setups"`
	Pinned      map[string]string `json:"pinned"`
	Failures    []string          `json:"failed_checks,omitempty"`
}

// fillMachine records the machine and the code the run measured.
func (st *stamp) fillMachine() {
	st.CPU = cpuModel()
	st.NProc = runtime.NumCPU()
	st.GOMAXPROCS = runtime.GOMAXPROCS(0)
	st.Go = runtime.Version()
	st.Commit = commit()
	st.Source = sourceDigest(".")
}

// cpuModel names the processor, or the architecture where the system
// does not say.
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commit is the version-control revision the binary was built from, when
// the build recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even in a checkout without version
// control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
