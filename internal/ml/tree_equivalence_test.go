package ml

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

// equivDataset builds datasets that exercise every kernel path: pure
// continuous columns, tie-heavy low-cardinality columns, constant
// columns (no valid split), and continuous columns that a few NaNs or a
// mix of −0 and +0 keep from being tie-free.
func equivDataset(n, d, classes int, seed uint64) *tabular.Frame {
	r := rand.New(rand.NewPCG(seed, 0xe9))
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			switch j % 6 {
			case 0:
				row[j] = r.NormFloat64() + float64(i%classes)
			case 1:
				row[j] = float64(r.IntN(4)) // heavy ties
			case 2:
				row[j] = 1.5 // constant
			case 3:
				row[j] = math.Round(r.NormFloat64()*2) / 2 // moderate ties
			case 4:
				row[j] = r.NormFloat64() - float64(i%classes)
				if r.IntN(9) == 0 {
					row[j] = math.NaN()
				}
			default:
				row[j] = r.NormFloat64()
				switch r.IntN(12) {
				case 0:
					row[j] = math.Copysign(0, -1)
				case 1:
					row[j] = 0
				}
			}
		}
		x = append(x, row)
		y = append(y, i%classes)
	}
	return labeled("equiv", x, y, classes)
}

// viewRows copies a view's rows into the row-major matrix the legacy
// kernel reads.
func viewRows(v tabular.View) [][]float64 {
	x := make([][]float64, v.Rows())
	for i := range x {
		x[i] = v.Row(i, nil)
	}
	return x
}

// TestTreeKernelMatchesLegacy asserts the rewritten CART kernel is
// bit-identical to the preserved pre-optimization kernel: same node
// order, features, thresholds, leaf statistics, Cost, and RNG
// consumption, across classification and regression, exhaustive and
// random-threshold splitting, full and subset feature sampling. Both
// tasks also fit subset views: a subsample and a bootstrap resample,
// whose repeated rows tie with themselves, so no regression column is
// exact there while NaN-free classification columns still are.
func TestTreeKernelMatchesLegacy(t *testing.T) {
	params := []TreeParams{
		{MaxDepth: 6},
		{MaxDepth: 0}, // unlimited
		{MaxDepth: 10, MinSamplesLeaf: 3, MinSamplesSplit: 8},
		{MaxDepth: 10, MaxFeatures: 0.3},
		{MaxDepth: 10, MaxFeatures: 0.3, RandomThreshold: true},
		{MaxDepth: 8, Criterion: Entropy},
		{MaxDepth: 8, MaxFeatures: 0.51, Criterion: Entropy, MinSamplesLeaf: 2},
	}
	for _, classes := range []int{0, 2, 5} {
		for pi, p := range params {
			for seed := uint64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("classes=%d/params=%d/seed=%d", classes, pi, seed), func(t *testing.T) {
					checkKernelMatchesLegacy(t, classes, p, seed, nil)
				})
				n := 150 + int(seed)*90
				r := rand.New(rand.NewPCG(seed, 0xb0))
				boot := make([]int, n)
				for i := range boot {
					boot[i] = r.IntN(n)
				}
				views := []struct {
					name string
					rows []int
				}{
					{"bootstrap", boot},
					{"subsample", r.Perm(n)[:n*3/5]},
				}
				for _, v := range views {
					t.Run(fmt.Sprintf("classes=%d/view=%s/params=%d/seed=%d", classes, v.name, pi, seed), func(t *testing.T) {
						checkKernelMatchesLegacy(t, classes, p, seed, v.rows)
					})
				}
			}
		}
	}
}

// checkKernelMatchesLegacy fits both kernels on equivDataset rows (all
// of them when rows is nil, else the subset view of rows, repeats
// allowed) and fails on any difference in nodes, Cost or RNG state.
func checkKernelMatchesLegacy(t *testing.T, classes int, p TreeParams, seed uint64, rows []int) {
	t.Helper()
	n := 150 + int(seed)*90
	dsClasses := classes
	if dsClasses == 0 {
		dsClasses = 3 // labels only seed the regression targets
	}
	view := equivDataset(n, 9, dsClasses, seed).All()
	if rows != nil {
		view = view.Select(rows)
	}
	x, y := viewRows(view), view.LabelsInto(nil)
	task := treeTask{v: view}
	legacyTask := legacyTreeTask{x: x}
	if classes > 0 {
		task.y = y
		legacyTask.y = y
	} else {
		task.t = make([]float64, len(x))
		for i, row := range x {
			task.t[i] = row[0]*1.3 + row[3] + float64(y[i])
		}
		legacyTask.t = task.t
	}

	newCore := treeCore{params: p, classes: classes}
	oldCore := legacyTreeCore{params: p, classes: classes}
	rngNew := rand.New(rand.NewPCG(seed*31, 0x7))
	rngOld := rand.New(rand.NewPCG(seed*31, 0x7))
	if err := newCore.fit(task, rngNew); err != nil {
		t.Fatalf("new fit: %v", err)
	}
	if err := oldCore.fit(legacyTask, rngOld); err != nil {
		t.Fatalf("legacy fit: %v", err)
	}

	if newCore.cost != oldCore.cost {
		t.Fatalf("cost diverged: new %+v legacy %+v", newCore.cost, oldCore.cost)
	}
	compareNodes(t, newCore.nodes, oldCore.nodes)
	// Both kernels must leave the RNG in the same state — a hidden extra
	// draw would desync every later model in a pipeline.
	if a, b := rngNew.Uint64(), rngOld.Uint64(); a != b {
		t.Fatalf("RNG streams diverged after fit: %d vs %d", a, b)
	}
}

// FuzzTreeRegressionMatchesLegacy fits the kernel and the legacy
// oracle on small datasets drawn from a tiny value alphabet — ties,
// NaNs, signed zeros, constant columns — and requires identical nodes,
// Cost and RNG state. Despite its name it covers both tasks. Each raw
// row is d feature bytes then one target byte; cfg picks d, the tree
// parameters, the view (identity, bootstrap repeats or a subsample),
// whether a regression fit copies a shared root presort, as gradient
// boosting's trees do, and the task: regression on the target byte, or
// 2 or 5 classes labelled by the target byte mod classes. The seeds
// encode equivDataset rows under every task, view and presort choice,
// regression first.
func FuzzTreeRegressionMatchesLegacy(f *testing.F) {
	for task := uint64(0); task < 3; task++ {
		for seed := uint64(1); seed <= 4; seed++ {
			ds := equivDataset(12+int(seed)*6, 6, 3, seed)
			raw := encodeFuzzRows(ds)
			for view := uint64(0); view < 3; view++ {
				for shared := uint64(0); shared < 2; shared++ {
					depth := 3 * (seed % 2) // unlimited or 3
					f.Add(raw, 5|depth<<3|(seed%3)<<6|(seed/3)<<8|view<<9|shared<<11|task<<12)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, cfg uint64) {
		d := 1 + int(cfg%6)
		p := TreeParams{MaxDepth: int(cfg >> 3 % 8), MinSamplesLeaf: 1 + int(cfg>>6%4)}
		if cfg>>8&1 == 1 {
			p.MaxFeatures = 0.5
		}
		view, shared := cfg>>9%4, cfg>>11&1 == 1
		classes := []int{0, 2, 5}[cfg>>12%3]
		n := min(len(raw)/(d+1), 48)
		if n < 1 {
			return
		}
		fr := tabular.NewFrame("fuzz", n, d)
		targets := make([]float64, n)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			row := raw[i*(d+1) : (i+1)*(d+1)]
			for j := 0; j < d; j++ {
				fr.Cols[j][i] = fuzzCell(row[j])
			}
			if classes > 0 {
				labels[i] = int(row[d]) % classes
			}
			targets[i] = float64(row[d]%32)/8 - 1
		}
		var rows []int
		r := rand.New(rand.NewPCG(cfg, uint64(n)))
		switch view {
		case 1:
			rows = make([]int, n)
			for i := range rows {
				rows[i] = r.IntN(n)
			}
		case 2:
			rows = r.Perm(n)[:max(1, n*2/3)]
		}
		v := tabular.NewView(fr, rows)
		task := treeTask{v: v}
		var legacyTask legacyTreeTask
		for i := 0; i < v.Rows(); i++ {
			if classes > 0 {
				task.y = append(task.y, labels[v.RowIndex(i)])
			} else {
				task.t = append(task.t, targets[v.RowIndex(i)])
			}
			x := make([]float64, d)
			for j := range x {
				x[j] = v.At(i, j)
			}
			legacyTask.x = append(legacyTask.x, x)
		}
		legacyTask.y, legacyTask.t = task.y, task.t
		if shared && classes == 0 {
			task.presort = newKeyPresort(v)
			defer task.presort.release()
		}

		newCore := treeCore{params: p, classes: classes}
		oldCore := legacyTreeCore{params: p, classes: classes}
		rngNew := rand.New(rand.NewPCG(cfg, 0x7))
		rngOld := rand.New(rand.NewPCG(cfg, 0x7))
		if err := newCore.fit(task, rngNew); err != nil {
			t.Fatalf("new fit: %v", err)
		}
		if err := oldCore.fit(legacyTask, rngOld); err != nil {
			t.Fatalf("legacy fit: %v", err)
		}
		if newCore.cost != oldCore.cost {
			t.Fatalf("cost diverged: new %+v legacy %+v", newCore.cost, oldCore.cost)
		}
		compareNodes(t, newCore.nodes, oldCore.nodes)
		if a, b := rngNew.Uint64(), rngOld.Uint64(); a != b {
			t.Fatalf("RNG streams diverged after fit: %d vs %d", a, b)
		}
	})
}

// fuzzCell decodes one feature byte: 0xff is NaN, 0xfe is −0, and any
// other byte one of 64 values on a quarter grid, +0 among them.
func fuzzCell(b byte) float64 {
	switch b {
	case 0xff:
		return math.NaN()
	case 0xfe:
		return math.Copysign(0, -1)
	}
	return float64(b&0x3f)/4 - 4
}

// encodeFuzzRows encodes a dataset's rows for the fuzz target: each
// cell as its column's dense rank, which fuzzCell decodes to a value of
// the same order, so ties, tie-free and constant columns survive. NaN
// and −0 keep their own bytes; a target byte follows from the label and
// column 0.
func encodeFuzzRows(ds *tabular.Frame) []byte {
	x := viewRows(ds.All())
	d := len(x[0])
	raw := make([]byte, 0, len(x)*(d+1))
	for i, row := range x {
		for j, v := range row {
			switch {
			case math.IsNaN(v):
				raw = append(raw, 0xff)
			case v == 0 && math.Signbit(v):
				raw = append(raw, 0xfe)
			default:
				rank := 0
				seen := map[float64]bool{}
				for _, other := range x {
					if w := other[j]; w < v && !seen[w] {
						seen[w] = true
						rank++
					}
				}
				raw = append(raw, byte(rank&0x3f))
			}
		}
		raw = append(raw, byte(ds.Y[i]*5+int(row[0]*4)&7))
	}
	return raw
}

func compareNodes(t *testing.T, got, want []treeNode) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("node count diverged: new %d legacy %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.feature != w.feature || g.left != w.left || g.right != w.right || g.depth != w.depth {
			t.Fatalf("node %d structure diverged: new %+v legacy %+v", i, g, w)
		}
		if math.Float64bits(g.threshold) != math.Float64bits(w.threshold) {
			t.Fatalf("node %d threshold diverged: %v vs %v", i, g.threshold, w.threshold)
		}
		if math.Float64bits(g.value) != math.Float64bits(w.value) {
			t.Fatalf("node %d value diverged: %v vs %v", i, g.value, w.value)
		}
		if len(g.proba) != len(w.proba) {
			t.Fatalf("node %d proba length diverged", i)
		}
		for c := range g.proba {
			if math.Float64bits(g.proba[c]) != math.Float64bits(w.proba[c]) {
				t.Fatalf("node %d proba[%d] diverged: %v vs %v", i, c, g.proba[c], w.proba[c])
			}
		}
	}
}

// TestManualShuffleMatchesPerm pins the scratch Fisher-Yates to
// math/rand/v2's Perm: the kernel relies on them consuming the stream
// identically.
func TestManualShuffleMatchesPerm(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, d := range []int{1, 2, 3, 7, 16, 40} {
			a := rand.New(rand.NewPCG(seed, 99))
			b := rand.New(rand.NewPCG(seed, 99))
			want := a.Perm(d)
			got := make([]int, d)
			for j := range got {
				got[j] = j
			}
			for i := d - 1; i > 0; i-- {
				j := int(b.Uint64N(uint64(i + 1)))
				got[i], got[j] = got[j], got[i]
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d d %d: manual shuffle %v != Perm %v", seed, d, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d d %d: stream desynced", seed, d)
			}
		}
	}
}
