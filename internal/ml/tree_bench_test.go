package ml

import (
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

// benchDataset builds a deterministic classification dataset with a mix of
// continuous and low-cardinality (tie-heavy) features, the shape the grid's
// tree fits actually see.
func benchDataset(n, d, classes int, seed uint64) *tabular.Frame {
	r := rand.New(rand.NewPCG(seed, 0xbe))
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := range row {
			if j%3 == 2 {
				// Low-cardinality column: exercises tie handling.
				row[j] = float64(r.IntN(5))
			} else {
				row[j] = r.NormFloat64() + float64(i%classes)
			}
		}
		x = append(x, row)
		y = append(y, i%classes)
	}
	return labeled("bench", x, y, classes)
}

func benchRegTargets(ds *tabular.Frame) []float64 {
	y := make([]float64, ds.Rows())
	for i := range y {
		y[i] = ds.Cols[0][i] + 0.5*ds.Cols[1%ds.Features()][i]
	}
	return y
}

// BenchmarkTreeCoreFit measures the hot CART kernel: one deep
// classification tree over all features, the workload underneath every
// forest, AdaBoost and TPOT pipeline in the grid.
func BenchmarkTreeCoreFit(b *testing.B) {
	ds := benchDataset(900, 20, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := treeCore{params: TreeParams{MaxDepth: 16}, classes: ds.Classes}
		if err := tc.fit(treeTask{v: ds.All(), y: ds.Y}, rand.New(rand.NewPCG(7, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeCoreFitSubset measures the forest configuration: feature
// subsetting per split (sqrt(d) convention).
func BenchmarkTreeCoreFitSubset(b *testing.B) {
	ds := benchDataset(900, 20, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := treeCore{params: TreeParams{MaxDepth: 16, MaxFeatures: 0.25}, classes: ds.Classes}
		if err := tc.fit(treeTask{v: ds.All(), y: ds.Y}, rand.New(rand.NewPCG(7, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeCoreFitRegression measures the regression kernel (gradient
// boosting's weak learner and the BO surrogate).
func BenchmarkTreeCoreFitRegression(b *testing.B) {
	ds := benchDataset(900, 20, 4, 1)
	y := benchRegTargets(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := treeCore{params: TreeParams{MaxDepth: 16}}
		if err := tc.fit(treeTask{v: ds.All(), t: y}, rand.New(rand.NewPCG(7, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// oneHotRegression builds a regression task shaped like the grid's
// preprocessed data: one-hot indicator groups, binary flags and
// low-cardinality codes, so nearly every split candidate sorts a column
// of heavy ties, plus a continuous target.
func oneHotRegression(n int, seed uint64) (*tabular.Frame, []float64) {
	r := rand.New(rand.NewPCG(seed, 0x0e))
	const groups, width, flags, codes = 3, 4, 4, 4
	var x [][]float64
	var labels []int
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, 0, groups*width+flags+codes)
		for g := 0; g < groups; g++ {
			hot := r.IntN(width)
			for c := 0; c < width; c++ {
				v := 0.0
				if c == hot {
					v = 1
				}
				row = append(row, v)
			}
			y[i] += float64(hot) * float64(g+1)
		}
		for f := 0; f < flags; f++ {
			row = append(row, float64(r.IntN(2)))
		}
		for c := 0; c < codes; c++ {
			row = append(row, float64(r.IntN(3+c)))
		}
		y[i] += row[len(row)-1] + r.NormFloat64()
		x = append(x, row)
		labels = append(labels, i%2)
	}
	return labeled("onehot", x, labels, 2), y
}

// BenchmarkTreeCoreFitRegressionOneHot measures the regression kernel on
// tie-heavy binary and low-cardinality columns, the grid's common case,
// which BenchmarkTreeCoreFitRegression's continuous columns rarely hit.
func BenchmarkTreeCoreFitRegressionOneHot(b *testing.B) {
	ds, y := oneHotRegression(900, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := treeCore{params: TreeParams{MaxDepth: 16}}
		if err := tc.fit(treeTask{v: ds.All(), t: y}, rand.New(rand.NewPCG(7, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeCoreFitRandomThreshold measures the extra-trees split path.
func BenchmarkTreeCoreFitRandomThreshold(b *testing.B) {
	ds := benchDataset(900, 20, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := treeCore{params: TreeParams{MaxDepth: 16, MaxFeatures: 0.25, RandomThreshold: true}, classes: ds.Classes}
		if err := tc.fit(treeTask{v: ds.All(), y: ds.Y}, rand.New(rand.NewPCG(7, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFit measures a whole bootstrap forest fit, the dominant
// model-training workload of the default search spaces.
func BenchmarkForestFit(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForestClassifier(ForestParams{Trees: 20, Bootstrap: true, Tree: TreeParams{MaxDepth: 12}})
		if _, err := f.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistGBTFit measures the histogram gradient-boosting fit: the
// quantization pass plus histogram-scan tree growth over all rounds.
func BenchmarkHistGBTFit(b *testing.B) {
	ds := benchDataset(600, 16, 3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHistBoosting(HistBoostingParams{Rounds: 10, MaxDepth: 3})
		if _, err := h.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// gridShaped builds a classification dataset shaped like the grid's
// preprocessed tables: continuous (tie-free) columns next to one-hot
// indicator groups and binary flags.
func gridShaped(n, classes int, seed uint64) *tabular.Frame {
	r := rand.New(rand.NewPCG(seed, 0x9d))
	const continuous, groups, width, flags = 8, 3, 4, 4
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		c := i % classes
		row := make([]float64, 0, continuous+groups*width+flags)
		for j := 0; j < continuous; j++ {
			row = append(row, r.NormFloat64()+0.4*float64(c*(j%3)))
		}
		for g := 0; g < groups; g++ {
			hot := (c + r.IntN(width)) % width
			for k := 0; k < width; k++ {
				v := 0.0
				if k == hot {
					v = 1
				}
				row = append(row, v)
			}
		}
		for f := 0; f < flags; f++ {
			row = append(row, float64(r.IntN(2)))
		}
		x = append(x, row)
		y = append(y, c)
	}
	return labeled("gridshaped", x, y, classes)
}

// BenchmarkBoostingFit measures a gradient-boosting fit at the search
// space's default configuration (40 rounds, learning rate 0.1, depth 3,
// no subsampling): one regression tree per class per round.
func BenchmarkBoostingFit(b *testing.B) {
	ds := gridShaped(600, 3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewBoostingClassifier(BoostingParams{Rounds: 40, LearningRate: 0.1, Tree: TreeParams{MaxDepth: 3}})
		if _, err := g.Fit(ds.All(), rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestRegressorFit measures the Bayesian-optimization
// surrogate: a 20-tree bootstrap forest over a short history of
// configuration vectors. Its trees score a feature subset, so this is
// the regression path that sorts every node.
func BenchmarkForestRegressorFit(b *testing.B) {
	ds := benchDataset(80, 10, 2, 3)
	y := benchRegTargets(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := NewForestRegressor(ForestParams{Trees: 20, Bootstrap: true, Tree: TreeParams{MaxDepth: 12, MinSamplesLeaf: 1, MaxFeatures: 0.8}})
		if _, err := f.FitReg(ds.All(), y, rand.New(rand.NewPCG(9, 0x11))); err != nil {
			b.Fatal(err)
		}
	}
}
