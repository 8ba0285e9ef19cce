package metrics

import (
	"math"
	mathrand "math/rand" //greenlint:allow globalrand testing/quick needs a v1 *rand.Rand; the source is explicitly seeded
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestConfusionMatrix(t *testing.T) {
	yTrue := []int{0, 0, 1, 1, 2}
	yPred := []int{0, 1, 1, 1, 0}
	cm := NewConfusionMatrix(yTrue, yPred, 3)
	if cm[0][0] != 1 || cm[0][1] != 1 || cm[1][1] != 2 || cm[2][0] != 1 {
		t.Errorf("confusion matrix %v", cm)
	}
	// Out-of-range labels are ignored.
	cm2 := NewConfusionMatrix([]int{0, 7}, []int{0, 0}, 2)
	if cm2[0][0] != 1 {
		t.Errorf("out-of-range label counted: %v", cm2)
	}
}

func TestBalancedAccuracyHandComputed(t *testing.T) {
	// Class 0 recall 2/3, class 1 recall 1/2: mean 7/12.
	yTrue := []int{0, 0, 0, 1, 1}
	yPred := []int{0, 0, 1, 1, 0}
	want := (2.0/3 + 1.0/2) / 2
	if got := BalancedAccuracy(yTrue, yPred, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("balanced accuracy %v, want %v", got, want)
	}
}

func TestBalancedAccuracyIgnoresAbsentClasses(t *testing.T) {
	yTrue := []int{0, 0, 0}
	yPred := []int{0, 0, 0}
	if got := BalancedAccuracy(yTrue, yPred, 5); got != 1 {
		t.Errorf("absent classes lowered balanced accuracy: %v", got)
	}
	if got := BalancedAccuracy(nil, nil, 3); got != 0 {
		t.Errorf("empty input balanced accuracy %v, want 0", got)
	}
}

// TestBalancedAccuracyMatchesConfusionMatrix checks that the counting
// BalancedAccuracy equals the confusion-matrix one bit for bit, on
// seeded random labels: some out of range on either side, some classes
// absent, and class counts on both sides of the stack bound. Below the
// bound it must allocate nothing.
func TestBalancedAccuracyMatchesConfusionMatrix(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for _, classes := range []int{0, 1, 2, 3, 7, 24, stackClasses - 1, stackClasses, stackClasses + 1, 3 * stackClasses} {
		for trial := 0; trial < 40; trial++ {
			n := rng.IntN(400)
			// Labels span [-2, classes+2), so out-of-range values appear
			// on both sides, and with few distinct labels drawn some
			// classes stay absent.
			span := classes + 4
			if trial%3 == 0 && classes > 0 {
				span = 1 + classes/2 + 4
			}
			yTrue, yPred := make([]int, n), make([]int, n)
			for i := range yTrue {
				yTrue[i] = rng.IntN(span) - 2
				if rng.IntN(4) == 0 {
					yPred[i] = yTrue[i]
				} else {
					yPred[i] = rng.IntN(classes+4) - 2
				}
			}
			got := BalancedAccuracy(yTrue, yPred, classes)
			want := NewConfusionMatrix(yTrue, yPred, classes).BalancedAccuracy()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("classes=%d trial=%d: BalancedAccuracy %v (%#x), confusion matrix %v (%#x)",
					classes, trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if classes <= stackClasses {
				if allocs := testing.AllocsPerRun(5, func() { BalancedAccuracy(yTrue, yPred, classes) }); allocs != 0 {
					t.Fatalf("classes=%d: %v allocations per call, want 0", classes, allocs)
				}
			}
		}
	}
}

// TestBalancedAccuracyImbalanceInvariance property-checks the defining
// feature of balanced accuracy: duplicating instances of one class does
// not change the score.
func TestBalancedAccuracyImbalanceInvariance(t *testing.T) {
	property := func(dup uint8) bool {
		yTrue := []int{0, 0, 1, 1}
		yPred := []int{0, 1, 1, 1}
		base := BalancedAccuracy(yTrue, yPred, 2)
		// Duplicate the (0 -> 0) and (0 -> 1) pair k times each,
		// keeping class 0's recall at 1/2.
		k := int(dup%5) + 1
		for i := 0; i < k; i++ {
			yTrue = append(yTrue, 0, 0)
			yPred = append(yPred, 0, 1)
		}
		return math.Abs(BalancedAccuracy(yTrue, yPred, 2)-base) < 1e-12
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50, Rand: mathrand.New(mathrand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3}, []int{1, 0, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("accuracy %v, want 2/3", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy not 0")
	}
}

func TestMacroF1(t *testing.T) {
	// Perfect prediction: F1 = 1.
	if got := MacroF1([]int{0, 1, 2}, []int{0, 1, 2}, 3); got != 1 {
		t.Errorf("perfect macro F1 %v", got)
	}
	// All wrong: F1 = 0.
	if got := MacroF1([]int{0, 0}, []int{1, 1}, 2); got != 0 {
		t.Errorf("all-wrong macro F1 %v", got)
	}
	// Hand-computed: class 0 precision 1, recall 1/2 -> F1 2/3; class 1
	// precision 2/3, recall 1 -> F1 4/5. Mean = 11/15.
	yTrue := []int{0, 0, 1, 1}
	yPred := []int{0, 1, 1, 1}
	want := (2.0/3 + 4.0/5) / 2
	if got := MacroF1(yTrue, yPred, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("macro F1 %v, want %v", got, want)
	}
}

func TestLogLoss(t *testing.T) {
	proba := [][]float64{{0.9, 0.1}, {0.2, 0.8}}
	want := -(math.Log(0.9) + math.Log(0.8)) / 2
	if got := LogLoss([]int{0, 1}, proba); math.Abs(got-want) > 1e-12 {
		t.Errorf("log loss %v, want %v", got, want)
	}
	// Clipping keeps zero probabilities finite.
	if got := LogLoss([]int{0}, [][]float64{{0, 1}}); math.IsInf(got, 1) {
		t.Error("log loss overflowed on zero probability")
	}
	if LogLoss(nil, nil) != 0 {
		t.Error("empty log loss not 0")
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{1, 3, 2}); got != 1 {
		t.Errorf("argmax %d, want 1", got)
	}
	if got := Argmax([]float64{5, 5}); got != 0 {
		t.Errorf("tie should pick the lowest index, got %d", got)
	}
	if got := Argmax(nil); got != -1 {
		t.Errorf("empty argmax %d, want -1", got)
	}
	rows := ArgmaxRows([][]float64{{0.1, 0.9}, {0.8, 0.2}})
	if rows[0] != 1 || rows[1] != 0 {
		t.Errorf("argmax rows %v", rows)
	}
}

func TestMeanStd(t *testing.T) {
	s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("std %v, want 2", s.Std)
	}
	if got := MeanStd(nil); got != (Summary{}) {
		t.Errorf("empty summary %+v", got)
	}
}

func TestBootstrap(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	// Degenerate case: one run per dataset -> zero variance, mean =
	// grand mean.
	s := Bootstrap([][]float64{{0.6}, {0.8}}, 200, rng)
	if math.Abs(s.Mean-0.7) > 1e-9 || s.Std > 1e-9 {
		t.Errorf("degenerate bootstrap %+v, want mean 0.7 std ~0", s)
	}
	// With run variance the bootstrap mean stays near the grand mean
	// and the std becomes positive.
	perDataset := [][]float64{{0.5, 0.7}, {0.9, 1.1}}
	s = Bootstrap(perDataset, 2000, rng)
	if math.Abs(s.Mean-0.8) > 0.02 {
		t.Errorf("bootstrap mean %v, want ~0.8", s.Mean)
	}
	if s.Std <= 0 {
		t.Error("bootstrap std not positive despite run variance")
	}
	// Empty datasets are skipped entirely.
	if got := Bootstrap([][]float64{{}, {}}, 10, rng); got != (Summary{}) {
		t.Errorf("all-empty bootstrap %+v", got)
	}
	s = Bootstrap([][]float64{{0.5}, {}}, 100, rng)
	if math.Abs(s.Mean-0.5) > 1e-12 {
		t.Errorf("bootstrap with one empty dataset: mean %v, want 0.5", s.Mean)
	}
}
