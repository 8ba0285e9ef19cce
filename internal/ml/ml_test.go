package ml

import (
	"math"
	mathrand "math/rand" //greenlint:allow globalrand testing/quick needs a v1 *rand.Rand; the source is explicitly seeded
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/tabular"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x11)) }

// labeled builds a labeled frame from row-major fixture rows.
func labeled(name string, x [][]float64, y []int, classes int) *tabular.Frame {
	f := tabular.FromRows(x).Frame()
	f.Name, f.Y, f.Classes = name, y, classes
	return f
}

// separableBlob builds a linearly separable two-cluster dataset.
func separableBlob(n, d int, rng *rand.Rand) *tabular.Frame {
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		c := i % 2
		row := make([]float64, d)
		for j := range row {
			row[j] = 4*float64(c) + rng.NormFloat64()
		}
		x = append(x, row)
		y = append(y, c)
	}
	return labeled("sep", x, y, 2)
}

// xorBlob builds an XOR-style dataset no linear model can solve.
func xorBlob(n int, rng *rand.Rand) *tabular.Frame {
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		a, b := rng.IntN(2), rng.IntN(2)
		row := []float64{4*float64(a) + rng.NormFloat64(), 4*float64(b) + rng.NormFloat64()}
		x = append(x, row)
		y = append(y, a^b)
	}
	return labeled("xor", x, y, 2)
}

func allClassifiers() map[string]Classifier {
	return map[string]Classifier{
		"tree":   NewTreeClassifier(TreeParams{MaxDepth: 8}),
		"forest": NewForestClassifier(ForestParams{Trees: 15, Bootstrap: true}),
		"extra":  NewForestClassifier(ForestParams{Trees: 15, ExtraTrees: true}),
		"gbt":    NewBoostingClassifier(BoostingParams{Rounds: 15}),
		"knn":    NewKNN(KNNParams{K: 3}),
		"logreg": NewLogisticRegression(LinearParams{Epochs: 25}),
		"svm":    NewLinearSVM(LinearParams{Epochs: 25}),
		"gnb":    NewGaussianNB(),
		"bnb":    NewBernoulliNB(1),
		"mlp":    NewMLP(MLPParams{Hidden: []int{16}, Epochs: 30}),
	}
}

func TestClassifiersLearnSeparableData(t *testing.T) {
	train := separableBlob(200, 4, testRNG(1))
	test := separableBlob(80, 4, testRNG(2))
	for name, clf := range allClassifiers() {
		clf := clf
		t.Run(name, func(t *testing.T) {
			cost, err := clf.Fit(train.All(), testRNG(3))
			if err != nil {
				t.Fatalf("Fit: %v", err)
			}
			if cost.Total() <= 0 {
				t.Error("training reported no cost")
			}
			pred, predCost := Predict(clf, test.All())
			if predCost.Total() <= 0 {
				t.Error("prediction reported no cost")
			}
			acc := metrics.Accuracy(test.Y, pred)
			if acc < 0.95 {
				t.Errorf("accuracy %.3f on trivially separable data", acc)
			}
		})
	}
}

func TestTreeModelsSolveXOR(t *testing.T) {
	train := xorBlob(300, testRNG(4))
	test := xorBlob(100, testRNG(5))
	nonlinear := map[string]Classifier{
		"tree":   NewTreeClassifier(TreeParams{MaxDepth: 8}),
		"forest": NewForestClassifier(ForestParams{Trees: 20, Bootstrap: true}),
		"gbt":    NewBoostingClassifier(BoostingParams{Rounds: 20}),
		"knn":    NewKNN(KNNParams{K: 5}),
		"mlp":    NewMLP(MLPParams{Hidden: []int{16}, Epochs: 60, LearningRate: 0.1}),
	}
	for name, clf := range nonlinear {
		if _, err := clf.Fit(train.All(), testRNG(6)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pred, _ := Predict(clf, test.All())
		if acc := metrics.Accuracy(test.Y, pred); acc < 0.85 {
			t.Errorf("%s: accuracy %.3f on XOR, want nonlinear capacity", name, acc)
		}
	}
	// A linear model must fail on XOR — that's what makes the search
	// space interesting.
	lin := NewLogisticRegression(LinearParams{Epochs: 40})
	lin.Fit(train.All(), testRNG(7))
	pred, _ := Predict(lin, test.All())
	if acc := metrics.Accuracy(test.Y, pred); acc > 0.75 {
		t.Errorf("logistic regression scored %.3f on XOR — the generator is not nonlinear", acc)
	}
}

// TestProbabilityRowsAreDistributions property-checks every classifier's
// output: probabilities are finite, non-negative and sum to one.
func TestProbabilityRowsAreDistributions(t *testing.T) {
	train := separableBlob(120, 3, testRNG(8))
	for name, clf := range allClassifiers() {
		if _, err := clf.Fit(train.All(), testRNG(9)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clf := clf
		property := func(raw [3]int16) bool {
			row := []float64{float64(raw[0]) / 100, float64(raw[1]) / 100, float64(raw[2]) / 100}
			proba, _ := clf.PredictProba(tabular.FromRows([][]float64{row}))
			var sum float64
			for _, p := range proba[0] {
				if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
					return false
				}
				sum += p
			}
			return math.Abs(sum-1) < 1e-6
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: mathrand.New(mathrand.NewSource(10))}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCloneIsUntrainedWithSameParams(t *testing.T) {
	train := separableBlob(100, 3, testRNG(11))
	for name, clf := range allClassifiers() {
		if _, err := clf.Fit(train.All(), testRNG(12)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clone := clf.Clone()
		if clone.Name() != clf.Name() {
			t.Errorf("%s: clone name %q != %q", name, clone.Name(), clf.Name())
		}
		// The clone must predict uniformly (or at least differently)
		// before its own Fit — it must not share trained state.
		proba, _ := clone.PredictProba(tabular.FromRows([][]float64{{0, 0, 0}}))
		uniform := true
		for _, p := range proba[0] {
			if math.Abs(p-1/float64(len(proba[0]))) > 1e-9 {
				uniform = false
			}
		}
		if !uniform {
			t.Errorf("%s: clone predicts non-uniformly before Fit", name)
		}
	}
}

func TestFitDeterminism(t *testing.T) {
	train := separableBlob(150, 3, testRNG(13))
	test := separableBlob(50, 3, testRNG(14))
	for name, build := range map[string]func() Classifier{
		"forest": func() Classifier { return NewForestClassifier(ForestParams{Trees: 10, Bootstrap: true}) },
		"gbt":    func() Classifier { return NewBoostingClassifier(BoostingParams{Rounds: 10}) },
		"mlp":    func() Classifier { return NewMLP(MLPParams{Hidden: []int{8}, Epochs: 10}) },
	} {
		a, b := build(), build()
		a.Fit(train.All(), testRNG(15))
		b.Fit(train.All(), testRNG(15))
		pa, _ := a.PredictProba(test.All())
		pb, _ := b.PredictProba(test.All())
		for i := range pa {
			for j := range pa[i] {
				if pa[i][j] != pb[i][j] {
					t.Fatalf("%s: same seed diverged at (%d,%d)", name, i, j)
				}
			}
		}
	}
}

func TestCostGrowsWithData(t *testing.T) {
	small := separableBlob(50, 4, testRNG(16))
	large := separableBlob(500, 4, testRNG(17))
	for name, build := range map[string]func() Classifier{
		"tree":   func() Classifier { return NewTreeClassifier(TreeParams{MaxDepth: 8}) },
		"logreg": func() Classifier { return NewLogisticRegression(LinearParams{Epochs: 10}) },
		"gnb":    func() Classifier { return NewGaussianNB() },
	} {
		a, b := build(), build()
		costSmall, _ := a.Fit(small.All(), testRNG(18))
		costLarge, _ := b.Fit(large.All(), testRNG(18))
		if costLarge.Total() <= costSmall.Total() {
			t.Errorf("%s: cost did not grow with data (%.0f vs %.0f)", name, costLarge.Total(), costSmall.Total())
		}
	}
}

func TestCostBuckets(t *testing.T) {
	train := separableBlob(100, 3, testRNG(19))
	tree := NewTreeClassifier(TreeParams{MaxDepth: 6})
	cost, _ := tree.Fit(train.All(), testRNG(20))
	if cost.Tree <= 0 || cost.Matrix != 0 {
		t.Errorf("tree cost in wrong buckets: %+v", cost)
	}
	mlp := NewMLP(MLPParams{Hidden: []int{8}, Epochs: 5})
	cost, _ = mlp.Fit(train.All(), testRNG(21))
	if cost.Matrix <= 0 || cost.Tree != 0 {
		t.Errorf("mlp cost in wrong buckets: %+v", cost)
	}
}

func TestCostArithmetic(t *testing.T) {
	c := Cost{Generic: 1, Tree: 2, Matrix: 3}
	c.Add(Cost{Generic: 10, Tree: 20, Matrix: 30})
	if c.Total() != 66 {
		t.Errorf("total %v, want 66", c.Total())
	}
	s := c.Scale(2)
	if s.Generic != 22 || s.Tree != 44 || s.Matrix != 66 {
		t.Errorf("scale %+v", s)
	}
	works := c.Works(0.5)
	if len(works) != 3 {
		t.Fatalf("works %v", works)
	}
	for _, w := range works {
		if w.ParallelFrac != 0.5 {
			t.Errorf("parallel fraction %v", w.ParallelFrac)
		}
	}
	if got := (Cost{}).Works(1); got != nil {
		t.Errorf("zero cost produced works %v", got)
	}
}

func TestTreeDepthLimit(t *testing.T) {
	// XOR data needs depth >= 2; noise makes deeper trees grow further.
	train := xorBlob(300, testRNG(22))
	for i := 0; i < 30; i++ {
		train.Y[i*7%300] = 1 - train.Y[i*7%300]
	}
	shallow := NewTreeClassifier(TreeParams{MaxDepth: 2})
	shallow.Fit(train.All(), testRNG(23))
	deep := NewTreeClassifier(TreeParams{MaxDepth: 12})
	deep.Fit(train.All(), testRNG(23))
	if shallow.NodeCount() > 7 {
		t.Errorf("depth-2 tree has %d nodes, want <= 7", shallow.NodeCount())
	}
	if deep.NodeCount() <= shallow.NodeCount() {
		t.Error("deep tree not larger than shallow tree")
	}
}

func TestTreeMinLeaf(t *testing.T) {
	train := xorBlob(200, testRNG(24))
	big := NewTreeClassifier(TreeParams{MaxDepth: 20, MinSamplesLeaf: 50})
	big.Fit(train.All(), testRNG(25))
	small := NewTreeClassifier(TreeParams{MaxDepth: 20, MinSamplesLeaf: 1})
	small.Fit(train.All(), testRNG(25))
	if big.NodeCount() >= small.NodeCount() {
		t.Errorf("min_leaf=50 tree (%d nodes) not smaller than min_leaf=1 (%d)", big.NodeCount(), small.NodeCount())
	}
}

func TestTreeFitErrors(t *testing.T) {
	tree := NewTreeClassifier(TreeParams{})
	if _, err := tree.Fit((&tabular.Frame{Classes: 2}).All(), testRNG(26)); err == nil {
		t.Error("empty dataset accepted")
	}
	reg := NewTreeRegressor(TreeParams{})
	if _, err := reg.FitReg(tabular.FromRows([][]float64{{1}}), []float64{1, 2}, testRNG(27)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRegressionTreeFitsStep(t *testing.T) {
	var xs [][]float64
	var ys []float64
	rng := testRNG(28)
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		y := 1.0
		if x > 5 {
			y = 3.0
		}
		xs = append(xs, []float64{x})
		ys = append(ys, y+0.05*rng.NormFloat64())
	}
	tree := NewTreeRegressor(TreeParams{MaxDepth: 3})
	if _, err := tree.FitReg(tabular.FromRows(xs), ys, rng); err != nil {
		t.Fatal(err)
	}
	pred, _ := tree.PredictReg(tabular.FromRows([][]float64{{2}, {8}}))
	if math.Abs(pred[0]-1) > 0.3 || math.Abs(pred[1]-3) > 0.3 {
		t.Errorf("step function fit: %v, want ~[1 3]", pred)
	}
}

func TestForestRegressorStd(t *testing.T) {
	rng := testRNG(29)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64()
		xs = append(xs, []float64{x})
		ys = append(ys, 2*x)
	}
	f := NewForestRegressor(ForestParams{Trees: 10, Bootstrap: true})
	if _, err := f.FitReg(tabular.FromRows(xs), ys, rng); err != nil {
		t.Fatal(err)
	}
	mean, std, _ := f.PredictWithStd(tabular.FromRows([][]float64{{0.5}}))
	if math.Abs(mean[0]-1) > 0.3 {
		t.Errorf("mean %v, want ~1", mean[0])
	}
	if std[0] < 0 {
		t.Errorf("negative std %v", std[0])
	}
}

func TestBoostingImprovesWithRounds(t *testing.T) {
	train := xorBlob(300, testRNG(30))
	test := xorBlob(120, testRNG(31))
	few := NewBoostingClassifier(BoostingParams{Rounds: 1, Tree: TreeParams{MaxDepth: 1}})
	few.Fit(train.All(), testRNG(32))
	many := NewBoostingClassifier(BoostingParams{Rounds: 40, Tree: TreeParams{MaxDepth: 2}})
	many.Fit(train.All(), testRNG(32))
	predFew, _ := Predict(few, test.All())
	predMany, _ := Predict(many, test.All())
	if metrics.Accuracy(test.Y, predMany) <= metrics.Accuracy(test.Y, predFew) {
		t.Errorf("boosting did not improve with rounds: %v vs %v",
			metrics.Accuracy(test.Y, predMany), metrics.Accuracy(test.Y, predFew))
	}
}

func TestKNNMemorizesWithK1(t *testing.T) {
	train := separableBlob(60, 3, testRNG(33))
	knn := NewKNN(KNNParams{K: 1})
	knn.Fit(train.All(), testRNG(34))
	pred, _ := Predict(knn, train.All())
	if acc := metrics.Accuracy(train.Y, pred); acc != 1 {
		t.Errorf("1-NN training accuracy %v, want 1", acc)
	}
	if knn.StoredRows() != train.Rows() {
		t.Errorf("stored %d rows, want %d", knn.StoredRows(), train.Rows())
	}
}

func TestKNNInferenceCostScalesWithTrainingSet(t *testing.T) {
	small := separableBlob(50, 3, testRNG(35))
	large := separableBlob(500, 3, testRNG(36))
	query := [][]float64{{0, 0, 0}}
	a := NewKNN(KNNParams{K: 3})
	a.Fit(small.All(), testRNG(37))
	_, costSmall := a.PredictProba(tabular.FromRows(query))
	b := NewKNN(KNNParams{K: 3})
	b.Fit(large.All(), testRNG(37))
	_, costLarge := b.PredictProba(tabular.FromRows(query))
	if costLarge.Total() < 5*costSmall.Total() {
		t.Errorf("lazy-learner inference cost did not scale: %v vs %v", costLarge.Total(), costSmall.Total())
	}
}

func TestUnfittedClassifiersReturnUniform(t *testing.T) {
	for name, clf := range allClassifiers() {
		proba, _ := clf.PredictProba(tabular.FromRows([][]float64{{1, 2, 3}}))
		if len(proba) != 1 || len(proba[0]) < 2 {
			t.Errorf("%s: unfitted proba shape %v", name, proba)
			continue
		}
		for _, p := range proba[0] {
			if math.Abs(p-1/float64(len(proba[0]))) > 1e-9 {
				t.Errorf("%s: unfitted prediction not uniform: %v", name, proba[0])
				break
			}
		}
	}
}

func TestMulticlass(t *testing.T) {
	rng := testRNG(38)
	var x [][]float64
	var y []int
	// Class centers on a 2D grid: every class is linearly separable
	// from the rest, so one-vs-rest learners can solve it too.
	for i := 0; i < 400; i++ {
		c := i % 4
		x = append(x, []float64{
			6*float64(c%2) + rng.NormFloat64(),
			6*float64(c/2) + rng.NormFloat64(),
		})
		y = append(y, c)
	}
	ds := labeled("multi", x, y, 4)
	for name, clf := range allClassifiers() {
		if _, err := clf.Fit(ds.All(), testRNG(39)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pred, _ := Predict(clf, ds.All())
		if acc := metrics.BalancedAccuracy(ds.Y, pred, 4); acc < 0.9 {
			t.Errorf("%s: 4-class balanced accuracy %.3f", name, acc)
		}
	}
}
