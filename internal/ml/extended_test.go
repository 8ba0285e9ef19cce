package ml

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tabular"
)

func TestAdaBoostLearns(t *testing.T) {
	train := xorBlob(300, testRNG(50))
	test := xorBlob(120, testRNG(51))
	ab := NewAdaBoost(AdaBoostParams{Rounds: 40, Tree: TreeParams{MaxDepth: 2}})
	cost, err := ab.Fit(train.All(), testRNG(52))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total() <= 0 {
		t.Error("no training cost")
	}
	if ab.Rounds() == 0 {
		t.Fatal("no weak learners fitted")
	}
	pred, _ := Predict(ab, test.All())
	if acc := metrics.Accuracy(test.Y, pred); acc < 0.85 {
		t.Errorf("AdaBoost accuracy %.3f on XOR", acc)
	}
	// A single depth-2 stump ensemble must beat its own single weak
	// learner on a problem stumps cannot solve alone.
	stump := NewTreeClassifier(TreeParams{MaxDepth: 1})
	stump.Fit(train.All(), testRNG(53))
	stumpPred, _ := Predict(stump, test.All())
	if metrics.Accuracy(test.Y, pred) <= metrics.Accuracy(test.Y, stumpPred) {
		t.Error("boosting did not improve on a single stump")
	}
}

func TestAdaBoostProbabilities(t *testing.T) {
	train := separableBlob(150, 3, testRNG(54))
	ab := NewAdaBoost(AdaBoostParams{Rounds: 10})
	if _, err := ab.Fit(train.All(), testRNG(55)); err != nil {
		t.Fatal(err)
	}
	proba, _ := ab.PredictProba(tabular.FromRows([][]float64{{0, 0, 0}, {4, 4, 4}}))
	for _, row := range proba {
		var sum float64
		for _, p := range row {
			if p < 0 {
				t.Fatalf("negative probability %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestQDALearnsEllipticalClasses(t *testing.T) {
	rng := testRNG(56)
	// Two classes with identical means but very different covariance:
	// linear models and naive Bayes with shared structure fail; QDA
	// must succeed.
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		c := i % 2
		var row []float64
		if c == 0 {
			row = []float64{0.3 * rng.NormFloat64(), 3 * rng.NormFloat64()}
		} else {
			row = []float64{3 * rng.NormFloat64(), 0.3 * rng.NormFloat64()}
		}
		x = append(x, row)
		y = append(y, c)
	}
	ds := labeled("sep", x, y, 2)
	q := NewQDA(0)
	cost, err := q.Fit(ds.All(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Matrix <= 0 {
		t.Error("QDA fit reported no matrix cost")
	}
	pred, _ := Predict(q, ds.All())
	if acc := metrics.Accuracy(ds.Y, pred); acc < 0.85 {
		t.Errorf("QDA accuracy %.3f on covariance-separated classes", acc)
	}
	// Logistic regression must do much worse here (sanity that the task
	// actually requires quadratic boundaries).
	lr := NewLogisticRegression(LinearParams{Epochs: 30})
	lr.Fit(ds.All(), testRNG(57))
	lrPred, _ := Predict(lr, ds.All())
	if lrAcc := metrics.Accuracy(ds.Y, lrPred); lrAcc > 0.7 {
		t.Errorf("linear model scored %.3f — task is not covariance-separated", lrAcc)
	}
}

func TestQDARejectsWideData(t *testing.T) {
	rng := testRNG(58)
	ds := separableBlob(40, 80, rng)
	if _, err := NewQDA(0).Fit(ds.All(), rng); err == nil {
		t.Error("QDA accepted 80 features (cubic fit would blow up)")
	}
}

func TestInvertSPD(t *testing.T) {
	m := [][]float64{{4, 1}, {1, 3}}
	inv, logDet, err := invertSPD(m)
	if err != nil {
		t.Fatal(err)
	}
	// det = 11, inverse = 1/11 * [[3,-1],[-1,4]].
	if math.Abs(logDet-math.Log(11)) > 1e-9 {
		t.Errorf("logDet %v, want log(11)", logDet)
	}
	want := [][]float64{{3.0 / 11, -1.0 / 11}, {-1.0 / 11, 4.0 / 11}}
	for i := range want {
		for j := range want[i] {
			if math.Abs(inv[i][j]-want[i][j]) > 1e-9 {
				t.Errorf("inv[%d][%d] = %v, want %v", i, j, inv[i][j], want[i][j])
			}
		}
	}
	if _, _, err := invertSPD([][]float64{{0}}); err == nil {
		t.Error("singular matrix inverted")
	}
}

func TestHistBoostingLearns(t *testing.T) {
	train := xorBlob(400, testRNG(59))
	test := xorBlob(150, testRNG(60))
	hb := NewHistBoosting(HistBoostingParams{Rounds: 30, MaxDepth: 3})
	cost, err := hb.Fit(train.All(), testRNG(61))
	if err != nil {
		t.Fatal(err)
	}
	if cost.Tree <= 0 {
		t.Error("no tree cost recorded")
	}
	pred, _ := Predict(hb, test.All())
	if acc := metrics.Accuracy(test.Y, pred); acc < 0.85 {
		t.Errorf("hist boosting accuracy %.3f on XOR", acc)
	}
}

// TestHistBoostingCheaperThanExact: the histogram trick must make training
// cheaper than exact-split boosting at comparable settings — the design
// point of the LightGBM family.
func TestHistBoostingCheaperThanExact(t *testing.T) {
	train := separableBlob(600, 8, testRNG(62))
	hist := NewHistBoosting(HistBoostingParams{Rounds: 20, MaxDepth: 3})
	histCost, err := hist.Fit(train.All(), testRNG(63))
	if err != nil {
		t.Fatal(err)
	}
	exact := NewBoostingClassifier(BoostingParams{Rounds: 20, Tree: TreeParams{MaxDepth: 3}})
	exactCost, err := exact.Fit(train.All(), testRNG(63))
	if err != nil {
		t.Fatal(err)
	}
	if histCost.Total() >= exactCost.Total() {
		t.Errorf("hist boosting cost %.0f not below exact boosting %.0f", histCost.Total(), exactCost.Total())
	}
}

func TestHistBoostingDeterminism(t *testing.T) {
	train := separableBlob(200, 4, testRNG(64))
	a := NewHistBoosting(HistBoostingParams{Rounds: 10})
	b := NewHistBoosting(HistBoostingParams{Rounds: 10})
	a.Fit(train.All(), testRNG(65))
	b.Fit(train.All(), testRNG(65))
	pa, _ := a.PredictProba(train.All().Head(10))
	pb, _ := b.PredictProba(train.All().Head(10))
	for i := range pa {
		for j := range pa[i] {
			if pa[i][j] != pb[i][j] {
				t.Fatal("hist boosting non-deterministic")
			}
		}
	}
}
