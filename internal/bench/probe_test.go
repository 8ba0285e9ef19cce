package bench

import (
	"testing"
	"time"

	"repro/internal/openml"
)

// TestFig3Probe is a development aid: a small fig3 slice with verbose
// rendering. Run with -v to inspect shapes.
func TestFig3Probe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is slow")
	}
	specs := []openml.Spec{}
	for _, name := range []string{"credit-g", "adult", "segment"} {
		s, ok := openml.ByName(name)
		if !ok {
			t.Fatalf("spec %s missing", name)
		}
		specs = append(specs, s)
	}
	cfg := Config{
		Datasets: specs,
		Budgets:  []time.Duration{10 * time.Second, time.Minute},
		Seeds:    1,
	}
	//greenlint:allow wallclock development probe logging real elapsed time, not a measured quantity
	start := time.Now()
	res, err := Fig3(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	//greenlint:allow wallclock development probe logging real elapsed time, not a measured quantity
	t.Logf("wall time: %s for %d records", time.Since(start), len(res.Records))
	t.Log("\n" + res.Render())
	t.Log("\n" + Fig4(res.Stats, nil).Render())
	t.Log("\n" + Table4(res.Stats).Render())
	t.Log("\n" + Table7(res.Stats, cfg.Budgets).Render())
}
