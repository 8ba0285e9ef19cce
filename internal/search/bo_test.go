package search

import (
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"repro/internal/pipeline"
)

// historyBO returns a BO over ASKL's full space holding obs sampled
// observations, and the PCG its RNG draws from.
func historyBO(tb testing.TB, obs int) (*BO, *rand.PCG) {
	tb.Helper()
	space, err := pipeline.FullSpec().Space()
	if err != nil {
		tb.Fatal(err)
	}
	pcg := rand.NewPCG(1, 2)
	bo := NewBO(space, rand.New(pcg))
	r := rand.New(rand.NewPCG(3, 4))
	for range obs {
		bo.Observe(space.Sample(r), r.Float64())
	}
	return bo, pcg
}

// TestBOSuggestAllocsIndependentOfCandidates checks that the candidate
// pool allocates nothing per candidate: after warm-up, Suggest makes as
// many allocations at 64 candidates as at 256. Each run reseeds the RNG,
// so both sizes fit the same surrogate; GC is off while measuring, so
// the kernels' pooled scratch is not dropped in between.
func TestBOSuggestAllocsIndependentOfCandidates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so allocation counts vary")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[int]float64{}
	for _, n := range []int{64, 256} {
		bo, pcg := historyBO(t, 20)
		bo.Candidates = n
		suggest := func() {
			pcg.Seed(5, 6)
			bo.Suggest()
		}
		suggest() // sizes the pool buffers
		allocs[n] = testing.AllocsPerRun(20, suggest)
	}
	if allocs[64] != allocs[256] {
		t.Fatalf("Suggest allocates %v times at 64 candidates but %v at 256", allocs[64], allocs[256])
	}
}

// suggestSink keeps the benchmarked suggestions reachable.
var suggestSink pipeline.Config

// BenchmarkBOSuggest measures one suggestion, surrogate fit included, at
// three history lengths: the per-system search loop's own overhead.
func BenchmarkBOSuggest(b *testing.B) {
	for _, obs := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("obs=%d", obs), func(b *testing.B) {
			bo, _ := historyBO(b, obs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				suggestSink, _ = bo.Suggest()
			}
		})
	}
}
