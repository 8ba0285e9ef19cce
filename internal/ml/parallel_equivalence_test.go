package ml

import (
	"sync/atomic"
	"testing"

	"repro/internal/tabular"
)

// withParallelism runs fn under the given within-fit worker budget and
// restores the previous budget afterwards. The knob is package-global,
// so these tests must not run with t.Parallel.
func withParallelism(t *testing.T, p int, fn func()) {
	t.Helper()
	prev := SetParallelism(p)
	defer SetParallelism(prev)
	fn()
}

// fitPredict fits a clone of proto and returns fit cost, probabilities
// and predict cost on the test view.
func fitPredict(t *testing.T, proto Classifier, train, test tabular.View) (Cost, [][]float64, Cost) {
	t.Helper()
	m := proto.Clone()
	fitCost, err := m.Fit(train, testRNG(5))
	if err != nil {
		t.Skipf("model does not fit this data: %v", err)
	}
	proba, predCost := m.PredictProba(test)
	return fitCost, proba, predCost
}

// TestParallelismEquivalenceClassifiers is the determinism bar of the
// within-cell parallelism work: every classifier must produce
// bit-identical probabilities and FLOP costs at parallelism 1, 2 and 4.
// Parallelism may only change wall-clock time, never a single float bit
// — the sanctioned reduction orders (see parallel.go) guarantee it by
// construction, and this suite enforces it empirically. Run under -race
// it additionally proves the disjoint-slot rule holds (no goroutine
// ever races on a shared accumulator).
func TestParallelismEquivalenceClassifiers(t *testing.T) {
	train := xorBlob(300, testRNG(21))
	test := xorBlob(90, testRNG(22))
	for name, proto := range equivalenceModels() {
		t.Run(name, func(t *testing.T) {
			var baseFit Cost
			var baseProba [][]float64
			var basePred Cost
			withParallelism(t, 1, func() {
				baseFit, baseProba, basePred = fitPredict(t, proto, train.All(), test.All())
			})
			for _, p := range []int{2, 4} {
				var fitCost Cost
				var proba [][]float64
				var predCost Cost
				withParallelism(t, p, func() {
					fitCost, proba, predCost = fitPredict(t, proto, train.All(), test.All())
				})
				if fitCost != baseFit {
					t.Errorf("parallelism %d: fit cost diverges: %+v vs %+v", p, fitCost, baseFit)
				}
				if predCost != basePred {
					t.Errorf("parallelism %d: predict cost diverges: %+v vs %+v", p, predCost, basePred)
				}
				if len(proba) != len(baseProba) {
					t.Fatalf("parallelism %d: row counts diverge: %d vs %d", p, len(proba), len(baseProba))
				}
				for i := range proba {
					for j := range proba[i] {
						if proba[i][j] != baseProba[i][j] {
							t.Fatalf("parallelism %d: proba (%d,%d): %v vs %v — reduction order leaked into the math",
								p, i, j, proba[i][j], baseProba[i][j])
						}
					}
				}
			}
		})
	}
}

// TestParallelismEquivalenceRegressors covers the regression kernels
// (surrogate models and the forest regressor's pre-split RNG streams).
func TestParallelismEquivalenceRegressors(t *testing.T) {
	ds := separableBlob(260, 3, testRNG(31))
	y := make([]float64, ds.Rows())
	for i := range y {
		y[i] = ds.Cols[0][i]*1.5 - ds.Cols[1][i] + 0.25*float64(ds.Y[i])
	}
	test := separableBlob(80, 3, testRNG(32))
	models := map[string]func() Regressor{
		"tree-reg":   func() Regressor { return NewTreeRegressor(TreeParams{MaxDepth: 6}) },
		"forest-reg": func() Regressor { return NewForestRegressor(ForestParams{Trees: 8, Bootstrap: true}) },
	}
	for name, mk := range models {
		t.Run(name, func(t *testing.T) {
			run := func(p int) (Cost, []float64, Cost) {
				var fitCost, predCost Cost
				var pred []float64
				withParallelism(t, p, func() {
					m := mk()
					var err error
					fitCost, err = m.FitReg(ds.All(), y, testRNG(6))
					if err != nil {
						t.Fatalf("fit: %v", err)
					}
					pred, predCost = m.PredictReg(test.All())
				})
				return fitCost, pred, predCost
			}
			baseFit, basePred, basePC := run(1)
			for _, p := range []int{2, 4} {
				fitCost, pred, pc := run(p)
				if fitCost != baseFit {
					t.Errorf("parallelism %d: fit cost diverges: %+v vs %+v", p, fitCost, baseFit)
				}
				if pc != basePC {
					t.Errorf("parallelism %d: predict cost diverges: %+v vs %+v", p, pc, basePC)
				}
				for i := range pred {
					if pred[i] != basePred[i] {
						t.Fatalf("parallelism %d: prediction %d: %v vs %v", p, i, pred[i], basePred[i])
					}
				}
			}
		})
	}
}

// TestRunIndexedCoversAllItems checks every index is executed exactly
// once and worker ids stay within the budget, at several budgets.
func TestRunIndexedCoversAllItems(t *testing.T) {
	const n = 1000
	for _, p := range []int{1, 2, 4, 7} {
		prev := SetParallelism(p)
		var hits [n]atomic.Int32
		var badWorker atomic.Bool
		runIndexed(n, func(worker, i int) {
			if worker < 0 || worker >= p {
				badWorker.Store(true)
			}
			hits[i].Add(1)
		})
		SetParallelism(prev)
		if badWorker.Load() {
			t.Fatalf("parallelism %d: worker id out of [0,%d)", p, p)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: item %d executed %d times", p, i, got)
			}
		}
	}
}

// TestRunIndexedEmpty checks zero and negative item counts are no-ops.
func TestRunIndexedEmpty(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		runIndexed(n, func(_, _ int) { called = true })
		if called {
			t.Fatalf("runIndexed(%d) invoked fn", n)
		}
	}
}

// TestRunIndexedPanicPropagates checks a worker panic is rethrown on
// the calling goroutine — the harness's per-cell recovery and the fault
// injector's panic faults depend on this matching sequential behavior.
func TestRunIndexedPanicPropagates(t *testing.T) {
	for _, p := range []int{1, 4} {
		prev := SetParallelism(p)
		func() {
			defer SetParallelism(prev)
			defer func() {
				if r := recover(); r != "kernel fault" {
					t.Fatalf("parallelism %d: recovered %v, want kernel fault", p, r)
				}
			}()
			runIndexed(64, func(_, i int) {
				if i == 13 {
					panic("kernel fault")
				}
			})
			t.Fatalf("parallelism %d: runIndexed returned without panicking", p)
		}()
	}
}

// TestRunRowBlocksGrid checks the block grid is a pure function of the
// row count — covering the full final block, a remainder block, a
// single short block, and empty input — and that rowBlockCount agrees
// with the blocks actually executed.
func TestRunRowBlocksGrid(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	cases := []int{0, 1, kernelBlock - 1, kernelBlock, kernelBlock + 1, 3*kernelBlock + 17}
	for _, n := range cases {
		covered := make([]atomic.Int32, max(n, 1))
		var blocks atomic.Int32
		runRowBlocks(n, func(_, b, lo, hi int) {
			blocks.Add(1)
			if lo != b*kernelBlock {
				t.Errorf("n=%d block %d: lo=%d, want %d", n, b, lo, b*kernelBlock)
			}
			if hi > n || hi <= lo {
				t.Errorf("n=%d block %d: bad range [%d,%d)", n, b, lo, hi)
			}
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		if got := int(blocks.Load()); got != rowBlockCount(n) {
			t.Errorf("n=%d: %d blocks executed, rowBlockCount says %d", n, got, rowBlockCount(n))
		}
		for i := 0; i < n; i++ {
			if covered[i].Load() != 1 {
				t.Fatalf("n=%d: row %d covered %d times", n, i, covered[i].Load())
			}
		}
	}
}

// TestSetParallelismClamps checks the knob clamps to [1, maxParallelism]
// and returns the previous value.
func TestSetParallelismClamps(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	if old := SetParallelism(0); old != 3 {
		t.Fatalf("SetParallelism(0) returned %d, want previous 3", old)
	}
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism() after clamp-low = %d, want 1", got)
	}
	SetParallelism(maxParallelism + 50)
	if got := Parallelism(); got != maxParallelism {
		t.Fatalf("Parallelism() after clamp-high = %d, want %d", got, maxParallelism)
	}
}

// BenchmarkForestFitParallel measures a forest fit at parallelism 1 and
// 4 — the headline scaling benchmark for within-cell parallelism. On a
// multi-core machine the p4 case should approach the core count in
// speedup; on a single core both cases collapse to the sequential cost
// (the knob adds only a few goroutine handoffs), which doubles as a
// cheap overhead regression guard.
func BenchmarkForestFitParallel(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	params := ForestParams{Trees: 20, Bootstrap: true}
	for _, p := range []int{1, 4} {
		b.Run(map[int]string{1: "p1", 4: "p4"}[p], func(b *testing.B) {
			prev := SetParallelism(p)
			defer SetParallelism(prev)
			b.ReportAllocs()
			for b.Loop() {
				m := NewForestClassifier(params)
				if _, err := m.Fit(ds.All(), testRNG(9)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
