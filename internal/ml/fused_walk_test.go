package ml

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

// The references below sum single-tree leaves row by row, tree by tree
// in slice order, with one Cost term per tree — the arithmetic of a
// loop of per-tree predictions, written without walkRows. refLeaf finds
// each leaf with a plain recursive walk on the <= rule, independent of
// the branch-free step.

// refLeaf walks view row i down tc and returns the leaf's payload and
// the number of nodes visited.
func refLeaf(tc *treeCore, x tabular.View, i int) ([]float64, float64) {
	var walk func(c int32, visits float64) ([]float64, float64)
	walk = func(c int32, visits float64) ([]float64, float64) {
		n := &tc.nodes[c]
		if math.IsNaN(n.threshold) {
			off, _ := n.leaf()
			return tc.leaves[off : off+tc.stride()], visits
		}
		if x.At(i, int(n.feature)) <= n.threshold {
			return walk(n.next, visits+1)
		}
		return walk(n.next+1, visits+1)
	}
	return walk(0, 1)
}

func refForestProba(f *ForestClassifier, x tabular.View) ([][]float64, Cost) {
	out := make([][]float64, x.Rows())
	for i := range out {
		out[i] = make([]float64, f.classes)
	}
	var cost Cost
	for _, tree := range f.trees {
		var visits float64
		for i := range out {
			leaf, v := refLeaf(&tree.core, x, i)
			visits += v
			for j, p := range leaf {
				out[i][j] += p
			}
		}
		cost.Add(Cost{Tree: 2 * visits})
	}
	inv := 1 / float64(len(f.trees))
	for _, row := range out {
		for j := range row {
			row[j] *= inv
		}
	}
	cost.Generic += float64(x.Rows() * f.classes * len(f.trees))
	return out, cost
}

func refForestStd(f *ForestRegressor, x tabular.View) (mean, std []float64, cost Cost) {
	sums := make([]float64, x.Rows())
	sumSqs := make([]float64, x.Rows())
	for _, tree := range f.trees {
		var visits float64
		for i := range sums {
			leaf, v := refLeaf(&tree.core, x, i)
			visits += v
			sums[i] += leaf[0]
			sumSqs[i] += leaf[0] * leaf[0]
		}
		cost.Add(Cost{Tree: 2 * visits})
	}
	n := float64(len(f.trees))
	mean = make([]float64, x.Rows())
	std = make([]float64, x.Rows())
	for i := range sums {
		mean[i] = sums[i] / n
		if variance := sumSqs[i]/n - mean[i]*mean[i]; variance > 0 {
			std[i] = math.Sqrt(variance)
		}
	}
	cost.Generic += float64(x.Rows()) * n
	return mean, std, cost
}

func refBoostingProba(b *BoostingClassifier, x tabular.View) ([][]float64, Cost) {
	out := make([][]float64, x.Rows())
	for i := range out {
		out[i] = make([]float64, b.classes)
	}
	var cost Cost
	for t, tree := range b.trees {
		k := t % b.classes
		var visits float64
		for i := range out {
			leaf, v := refLeaf(&tree.core, x, i)
			visits += v
			out[i][k] += b.Params.LearningRate * leaf[0]
		}
		cost.Add(Cost{Tree: 2 * visits})
	}
	for _, row := range out {
		softmaxInPlace(row)
	}
	cost.Generic += float64(x.Rows() * b.classes * 2)
	return out, cost
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func sameRows(t *testing.T, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		sameBits(t, fmt.Sprintf("row %d", i), got[i], want[i])
	}
}

func sameCost(t *testing.T, got, want Cost) {
	t.Helper()
	sameBits(t, "Cost{Generic,Tree,Matrix}",
		[]float64{got.Generic, got.Tree, got.Matrix},
		[]float64{want.Generic, want.Tree, want.Matrix})
}

// fusedViews returns three n-row views of classes-class data: a
// contiguous one, a Select view (shuffled rows of a larger frame) and
// edgeRows over the contiguous rows and the model's trees.
func fusedViews(n, classes int, trees []*treeCore) map[string]tabular.View {
	big := equivDataset(700, 9, classes, uint64(n+classes))
	contiguous := equivDataset(n, 9, classes, uint64(n*classes)).All()
	return map[string]tabular.View{
		"contiguous": contiguous,
		"select":     big.All().Select(rand.New(rand.NewPCG(uint64(n), 7)).Perm(big.Rows())[:n]),
		"edges":      edgeRows(contiguous, trees),
	}
}

// edgeRows rewrites the rows of base, in turn: cells set exactly to the
// split thresholds on each tree's path (the first threshold met wins a
// feature, and equality goes left), NaN cells, ±Inf cells, −0 cells,
// and an untouched row.
func edgeRows(base tabular.View, trees []*treeCore) tabular.View {
	rows := make([][]float64, base.Rows())
	for r := range rows {
		row := base.Row(r, nil)
		for j := range row {
			switch r % 5 {
			case 1:
				if (j+r)%3 == 0 {
					row[j] = math.NaN()
				}
			case 2:
				switch (j + r) % 3 {
				case 0:
					row[j] = math.Inf(1)
				case 1:
					row[j] = math.Inf(-1)
				}
			case 3:
				if (j+r)%2 == 0 {
					row[j] = math.Copysign(0, -1)
				}
			}
		}
		if r%5 == 0 {
			pinned := make([]bool, len(row))
			for _, tc := range trees {
				for c := int32(0); !math.IsNaN(tc.nodes[c].threshold); {
					n := tc.nodes[c]
					if !pinned[n.feature] {
						pinned[n.feature] = true
						row[n.feature] = n.threshold
					}
					c = n.next
					if !(row[n.feature] <= n.threshold) {
						c++
					}
				}
			}
		}
		rows[r] = row
	}
	return tabular.FromRows(rows)
}

// treeCores returns an ensemble's fitted trees.
func treeCores(m any) []*treeCore {
	var out []*treeCore
	switch m := m.(type) {
	case *ForestClassifier:
		for _, t := range m.trees {
			out = append(out, &t.core)
		}
	case *ForestRegressor:
		for _, t := range m.trees {
			out = append(out, &t.core)
		}
	case *BoostingClassifier:
		for _, t := range m.trees {
			out = append(out, &t.core)
		}
	}
	return out
}

// TestFusedWalkMatchesPerTree checks that every ensemble's fused walk —
// one pass over row blocks that adds each tree's leaf straight into the
// output — yields the per-tree reference bit for bit, Cost included.
// The row counts put the last block at every edge of kernelBlock (one
// row, one short of a block, exactly one block, one past it, several
// blocks), each on a contiguous, a Select and an edge-value view, at
// parallelism 1 and 4. The forest sizes cover every remainder of the
// four-tree interleave.
func TestFusedWalkMatchesPerTree(t *testing.T) {
	rowCounts := []int{1, kernelBlock - 1, kernelBlock, kernelBlock + 1, 600}

	type classifierCase struct {
		name    string
		classes int
		model   Classifier
		ref     func(Classifier, tabular.View) ([][]float64, Cost)
	}
	forestRef := func(m Classifier, x tabular.View) ([][]float64, Cost) {
		return refForestProba(m.(*ForestClassifier), x)
	}
	boostRef := func(m Classifier, x tabular.View) ([][]float64, Cost) {
		return refBoostingProba(m.(*BoostingClassifier), x)
	}
	cases := []classifierCase{
		{"rf", 3, NewForestClassifier(ForestParams{Trees: 7, Bootstrap: true, Tree: TreeParams{MaxDepth: 8}}), forestRef},
		{"xt", 3, NewForestClassifier(ForestParams{Trees: 7, ExtraTrees: true}), forestRef},
	}
	for _, trees := range []int{1, 3, 4, 5, 50} {
		cases = append(cases, classifierCase{
			fmt.Sprintf("rf/trees=%d", trees), 3,
			NewForestClassifier(ForestParams{Trees: trees, Bootstrap: true}), forestRef,
		})
	}
	for _, classes := range []int{2, 5} {
		for _, sub := range []float64{1, 0.6} {
			cases = append(cases, classifierCase{
				fmt.Sprintf("gbt/classes=%d/subsample=%v", classes, sub), classes,
				NewBoostingClassifier(BoostingParams{Rounds: 6, Subsample: sub, Tree: TreeParams{MaxDepth: 4}}), boostRef,
			})
		}
	}
	for _, c := range cases {
		train := equivDataset(300, 9, c.classes, 41).All()
		if _, err := c.model.Fit(train, testRNG(3)); err != nil {
			t.Fatalf("%s: fit: %v", c.name, err)
		}
		for _, n := range rowCounts {
			for view, x := range fusedViews(n, c.classes, treeCores(c.model)) {
				wantProba, wantCost := c.ref(c.model, x)
				for _, p := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/rows=%d/%s/p=%d", c.name, n, view, p), func(t *testing.T) {
						withParallelism(t, p, func() {
							proba, cost := c.model.PredictProba(x)
							sameRows(t, proba, wantProba)
							sameCost(t, cost, wantCost)
						})
					})
				}
			}
		}
	}

	train := equivDataset(300, 9, 2, 43).All()
	y := make([]float64, train.Rows())
	for i := range y {
		y[i] = 2*train.At(i, 0) - train.At(i, 2)
	}
	reg := NewForestRegressor(ForestParams{Trees: 7, Bootstrap: true, Tree: TreeParams{MaxDepth: 6}})
	if _, err := reg.FitReg(train, y, testRNG(4)); err != nil {
		t.Fatalf("forest regressor fit: %v", err)
	}
	for _, n := range rowCounts {
		for view, x := range fusedViews(n, 2, treeCores(reg)) {
			wantMean, wantStd, wantCost := refForestStd(reg, x)
			for _, p := range []int{1, 4} {
				t.Run(fmt.Sprintf("rf-reg/rows=%d/%s/p=%d", n, view, p), func(t *testing.T) {
					withParallelism(t, p, func() {
						mean, std, cost := reg.PredictWithStd(x)
						sameBits(t, "mean", mean, wantMean)
						sameBits(t, "std", std, wantStd)
						sameCost(t, cost, wantCost)
					})
				})
			}
		}
	}
}

// TestEnsemblePredictAllocsFlat pins the fused walk's allocation shape:
// predicting one row allocates the same number of times for a 5-tree
// and a 50-tree ensemble, because trees add into one output instead of
// each returning its own.
func TestEnsemblePredictAllocsFlat(t *testing.T) {
	train := equivDataset(200, 9, 3, 17).All()
	x := equivDataset(1, 9, 3, 18).All()
	y := make([]float64, train.Rows())
	for i := range y {
		y[i] = train.At(i, 1)
	}
	allocs := func(size int) (forest, std, boost float64) {
		f := NewForestClassifier(ForestParams{Trees: size, Tree: TreeParams{MaxDepth: 5}})
		if _, err := f.Fit(train, testRNG(1)); err != nil {
			t.Fatal(err)
		}
		r := NewForestRegressor(ForestParams{Trees: size, Tree: TreeParams{MaxDepth: 5}})
		if _, err := r.FitReg(train, y, testRNG(2)); err != nil {
			t.Fatal(err)
		}
		b := NewBoostingClassifier(BoostingParams{Rounds: size, Tree: TreeParams{MaxDepth: 3}})
		if _, err := b.Fit(train, testRNG(3)); err != nil {
			t.Fatal(err)
		}
		forest = testing.AllocsPerRun(20, func() { f.PredictProba(x) })
		std = testing.AllocsPerRun(20, func() { r.PredictWithStd(x) })
		boost = testing.AllocsPerRun(20, func() { b.PredictProba(x) })
		return forest, std, boost
	}
	withParallelism(t, 1, func() {
		f5, s5, b5 := allocs(5)
		f50, s50, b50 := allocs(50)
		if f5 != f50 {
			t.Errorf("ForestClassifier.PredictProba: %v allocs with 5 trees, %v with 50", f5, f50)
		}
		if s5 != s50 {
			t.Errorf("ForestRegressor.PredictWithStd: %v allocs with 5 trees, %v with 50", s5, s50)
		}
		if b5 != b50 {
			t.Errorf("BoostingClassifier.PredictProba: %v allocs with 5 rounds, %v with 50", b5, b50)
		}
	})
}

// TestEnsemblePredictAllocsOutputOnly pins the sequential walk's
// allocations to the outputs alone: at parallelism 1, predicting a
// serving-sized batch builds no closure and no per-block slots, so each
// ensemble predict allocates exactly its two output slices (the proba
// slab and its row headers, or the mean and std vectors).
func TestEnsemblePredictAllocsOutputOnly(t *testing.T) {
	train := equivDataset(200, 9, 3, 17).All()
	y := make([]float64, train.Rows())
	for i := range y {
		y[i] = train.At(i, 1)
	}
	f := NewForestClassifier(ForestParams{Trees: 8, Tree: TreeParams{MaxDepth: 5}})
	if _, err := f.Fit(train, testRNG(1)); err != nil {
		t.Fatal(err)
	}
	r := NewForestRegressor(ForestParams{Trees: 8, Tree: TreeParams{MaxDepth: 5}})
	if _, err := r.FitReg(train, y, testRNG(2)); err != nil {
		t.Fatal(err)
	}
	b := NewBoostingClassifier(BoostingParams{Rounds: 8, Tree: TreeParams{MaxDepth: 3}})
	if _, err := b.Fit(train, testRNG(3)); err != nil {
		t.Fatal(err)
	}
	withParallelism(t, 1, func() {
		for _, rows := range []int{1, 32, kernelBlock + 1} {
			x := equivDataset(rows, 9, 3, 18).All()
			for name, predict := range map[string]func(){
				"ForestClassifier.PredictProba":   func() { f.PredictProba(x) },
				"ForestRegressor.PredictWithStd":  func() { r.PredictWithStd(x) },
				"BoostingClassifier.PredictProba": func() { b.PredictProba(x) },
			} {
				if got := testing.AllocsPerRun(20, predict); got != 2 {
					t.Errorf("%s on %d rows: %v allocs, want 2 (the outputs)", name, rows, got)
				}
			}
		}
	})
}
