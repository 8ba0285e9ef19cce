package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/hw"
	"repro/internal/serve"
)

// TestValidate drives the flag validator table-style: each row is a flag
// combination and the error fragment it must produce, "" for accepted.
func TestValidate(t *testing.T) {
	base := func() options {
		return options{dataPath: "d.csv", system: "caml", budget: 30 * time.Second, cores: 1}
	}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string
	}{
		{"defaults ok", func(o *options) {}, ""},
		{"missing data", func(o *options) { o.dataPath = "" }, "-data is required"},
		{"unknown system", func(o *options) { o.system = "h2o" }, "unknown system"},
		{"zero budget", func(o *options) { o.budget = 0 }, "-budget"},
		{"negative budget", func(o *options) { o.budget = -time.Second }, "-budget"},
		{"zero cores", func(o *options) { o.cores = 0 }, "-cores"},
		{"artifact from caml ok", func(o *options) { o.saveArtifact = "m.model" }, ""},
		{"artifact from flaml ok", func(o *options) { o.system = "flaml"; o.saveArtifact = "m.model" }, ""},
		{"artifact from tpot ok", func(o *options) { o.system = "tpot"; o.saveArtifact = "m.model" }, ""},
		{"artifact from tabpfn rejected", func(o *options) { o.system = "tabpfn"; o.saveArtifact = "m.model" }, "-save-artifact"},
		{"artifact from autogluon rejected", func(o *options) { o.system = "autogluon"; o.saveArtifact = "m.model" }, "-save-artifact"},
		{"tabpfn without artifact ok", func(o *options) { o.system = "tabpfn" }, ""},
		{"zeroshot ok", func(o *options) { o.system = "zeroshot" }, ""},
		{"repo ok", func(o *options) { o.repoDir = "store" }, ""},
		{"repo readonly ok", func(o *options) { o.repoDir = "store"; o.repoReadonly = true }, ""},
		{"readonly without repo", func(o *options) { o.repoReadonly = true }, "-repo-readonly"},
		{"repo with save-artifact", func(o *options) { o.repoDir = "store"; o.saveArtifact = "m.model" }, "mutually exclusive"},
		{"repo with timeline", func(o *options) { o.repoDir = "store"; o.timeline = "t.csv" }, "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.mutate(&o)
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want accept", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// writeTestCSV writes a small separable two-class dataset.
func writeTestCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 3))
	var sb strings.Builder
	sb.WriteString("f1,f2,label\n")
	for i := 0; i < 120; i++ {
		y := i % 2
		fmt.Fprintf(&sb, "%.4f,%.4f,%d\n",
			float64(y)+0.3*rng.NormFloat64(), -float64(y)+0.3*rng.NormFloat64(), y)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSaveArtifactRoundTrip is the full lifecycle: greenrun trains
// under the meter, packages the winner, and the artifact loads back,
// verifies its fingerprint, and serves through the engine.
func TestRunSaveArtifactRoundTrip(t *testing.T) {
	artifactPath := filepath.Join(t.TempDir(), "out.model")
	o := options{
		dataPath:     writeTestCSV(t),
		system:       "caml",
		budget:       5 * time.Second,
		cores:        1,
		seed:         11,
		splitSeed:    7,
		saveArtifact: artifactPath,
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	a, _, err := artifact.Load(artifactPath)
	if err != nil {
		t.Fatalf("loading the saved artifact: %v", err)
	}
	if a.Spec.Dataset != o.dataPath {
		t.Fatalf("artifact dataset %q", a.Spec.Dataset)
	}
	eng := serve.NewEngine(serve.NewModel(a), hw.XeonGold6132(), serve.Config{})
	resps := slices.Clone(eng.Submit(serve.Request{ID: 1, Row: []float64{1.0, -1.0}, Arrival: 0}))
	resps = append(resps, eng.Drain(time.Second)...)
	if len(resps) != 1 || resps[0].Outcome != serve.Served {
		t.Fatalf("serving the saved artifact: %v", resps)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v\noutput:\n%s", runErr, out)
	}
	return string(out)
}

// TestRunRepoWarmReplay runs the same dataset twice against a
// repository: the cold run stores its outcome, the warm run replays it
// without fitting, and both print the identical report lines.
func TestRunRepoWarmReplay(t *testing.T) {
	o := options{
		dataPath:  writeTestCSV(t),
		system:    "caml",
		budget:    2 * time.Second,
		cores:     1,
		seed:      5,
		splitSeed: 7,
		repoDir:   filepath.Join(t.TempDir(), "store"),
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
	cold := captureStdout(t, func() error { return run(o) })
	if !strings.Contains(cold, "repository:         stored") {
		t.Fatalf("cold run did not store:\n%s", cold)
	}
	warm := captureStdout(t, func() error { return run(o) })
	if !strings.Contains(warm, "no fit performed") {
		t.Fatalf("warm run did not hit the store:\n%s", warm)
	}
	// Every report line above the repository status must match exactly.
	trim := func(s string) string {
		i := strings.Index(s, "repository:")
		return s[:i]
	}
	if trim(cold) != trim(warm) {
		t.Fatalf("warm report diverged from cold\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// A different seed is a different run: it must miss and store anew.
	o.seed = 6
	other := captureStdout(t, func() error { return run(o) })
	if !strings.Contains(other, "repository:         stored") {
		t.Fatalf("changed seed did not miss:\n%s", other)
	}
}

// TestRunTimeline keeps the pre-existing timeline export path working
// under the refactored runner.
func TestRunTimeline(t *testing.T) {
	timeline := filepath.Join(t.TempDir(), "trace.csv")
	o := options{
		dataPath:  writeTestCSV(t),
		system:    "caml",
		budget:    2 * time.Second,
		cores:     1,
		seed:      1,
		splitSeed: 7,
		timeline:  timeline,
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(timeline)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("timeline export is empty")
	}
}
