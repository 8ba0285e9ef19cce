package tabular

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x7ab)) }

// labeled builds a labeled frame from row-major fixture rows.
func labeled(name string, x [][]float64, y []int, classes int) *Frame {
	f := FromRows(x).Frame()
	f.Name, f.Y, f.Classes = name, y, classes
	return f
}

// blob builds a small dataset with `perClass` rows of each of `classes`
// classes.
func blob(classes, perClass, features int) *Frame {
	var x [][]float64
	var y []int
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			row := make([]float64, features)
			for j := range row {
				row[j] = float64(c) + 0.1*float64(i)
			}
			x = append(x, row)
			y = append(y, c)
		}
	}
	return labeled("blob", x, y, classes)
}

func TestValidate(t *testing.T) {
	good := blob(3, 5, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Frame)
		want   string
	}{
		{"no rows", func(f *Frame) { f.Cols[0], f.Cols[1], f.Y = nil, nil, nil }, "no rows"},
		{"label mismatch", func(f *Frame) { f.Y = f.Y[:3] }, "labels"},
		{"one class", func(f *Frame) { f.Classes = 1 }, "classes"},
		{"ragged row", func(f *Frame) { f.Cols[1] = f.Cols[1][:2] }, "column 1 has 2 rows"},
		{"bad label", func(f *Frame) { f.Y[0] = 99 }, "outside"},
		{"kinds mismatch", func(f *Frame) { f.Kinds = []FeatureKind{Numeric} }, "kinds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := blob(3, 5, 2)
			tc.mutate(d)
			err := d.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed dataset")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	d := blob(2, 3, 4)
	if d.Rows() != 6 || d.Features() != 4 {
		t.Errorf("rows/features = %d/%d, want 6/4", d.Rows(), d.Features())
	}
	if d.Kind(0) != Numeric {
		t.Error("nil Kinds should default to numeric")
	}
	d.Kinds = []FeatureKind{Categorical, Numeric, Numeric, Numeric}
	if d.Kind(0) != Categorical || d.NumCategorical() != 1 {
		t.Error("categorical kind not reported")
	}
	if d.Kind(99) != Numeric {
		t.Error("out-of-range kind should default to numeric")
	}
	counts := d.ClassCounts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Errorf("class counts %v", counts)
	}
	col := d.All().Col(1)
	if len(col) != 6 || col[4] != d.All().At(4, 1) {
		t.Error("column extraction broken")
	}
	if (&Frame{}).Features() != 0 {
		t.Error("empty dataset features != 0")
	}
}

func TestStratifiedSplit(t *testing.T) {
	d := blob(3, 30, 2)
	first, second := d.All().StratifiedSplit(0.4, testRNG(1))
	if first.Rows()+second.Rows() != d.Rows() {
		t.Fatalf("split lost rows: %d + %d != %d", first.Rows(), second.Rows(), d.Rows())
	}
	for c, n := range first.ClassCounts() {
		if n != 12 {
			t.Errorf("class %d: first part has %d rows, want 12 (40%% of 30)", c, n)
		}
	}
	// Each class must be present on both sides even at extreme
	// fractions.
	tiny, rest := d.All().StratifiedSplit(0.001, testRNG(2))
	for c, n := range tiny.ClassCounts() {
		if n == 0 {
			t.Errorf("class %d missing from tiny side", c)
		}
	}
	for c, n := range rest.ClassCounts() {
		if n == 0 {
			t.Errorf("class %d missing from rest side", c)
		}
	}
	// Fractions clamp.
	a, b := d.All().StratifiedSplit(-1, testRNG(3))
	if a.Rows() != 3 || b.Rows() != d.Rows()-3 {
		// One per class stays on the first side.
		t.Errorf("clamped split sizes: %d/%d", a.Rows(), b.Rows())
	}
}

func TestTrainTestSplitIs66_34(t *testing.T) {
	d := blob(2, 100, 3)
	train, test := d.All().TrainTestSplit(testRNG(4))
	if train.Rows() != 132 || test.Rows() != 68 {
		t.Errorf("66/34 split sizes: %d/%d", train.Rows(), test.Rows())
	}
}

func TestSubsample(t *testing.T) {
	d := blob(2, 100, 2)
	s := d.All().Subsample(40, testRNG(5))
	if math.Abs(float64(s.Rows())-40) > 2 {
		t.Errorf("subsample size %d, want ~40", s.Rows())
	}
	if got := d.All().Subsample(1000, testRNG(6)); got.Rows() != d.Rows() || !got.Contiguous() {
		t.Error("oversized subsample should return the identity view unchanged")
	}
	counts := s.ClassCounts()
	if counts[0] == 0 || counts[1] == 0 {
		t.Error("subsample lost a class")
	}
}

func TestSubsamplePerClass(t *testing.T) {
	d := blob(3, 50, 2)
	s := d.All().SubsamplePerClass(7, testRNG(7))
	for c, n := range s.ClassCounts() {
		if n != 7 {
			t.Errorf("class %d has %d rows, want 7", c, n)
		}
	}
	// Requesting more than available caps at the class size.
	s2 := d.All().SubsamplePerClass(500, testRNG(8))
	if s2.Rows() != d.Rows() {
		t.Errorf("oversized per-class sample has %d rows, want %d", s2.Rows(), d.Rows())
	}
	s3 := d.All().SubsamplePerClass(0, testRNG(9))
	if s3.Rows() != 3 {
		t.Errorf("zero per-class clamps to 1: got %d rows", s3.Rows())
	}
}

func TestKFoldPartition(t *testing.T) {
	d := blob(3, 20, 2)
	trains, vals := d.All().KFold(5, testRNG(10))
	if len(trains) != 5 || len(vals) != 5 {
		t.Fatalf("fold counts %d/%d", len(trains), len(vals))
	}
	seen := 0
	for f := range vals {
		seen += vals[f].Rows()
		if trains[f].Rows()+vals[f].Rows() != d.Rows() {
			t.Errorf("fold %d: %d + %d != %d", f, trains[f].Rows(), vals[f].Rows(), d.Rows())
		}
		// Stratification: each fold's validation part has all classes.
		for c, n := range vals[f].ClassCounts() {
			if n == 0 {
				t.Errorf("fold %d validation missing class %d", f, c)
			}
		}
	}
	if seen != d.Rows() {
		t.Errorf("validation folds cover %d rows, want %d (each exactly once)", seen, d.Rows())
	}
}

func TestKFoldIndicesCoverEachRowOnce(t *testing.T) {
	d := blob(2, 17, 2) // odd sizes exercise remainder handling
	folds := d.All().KFoldIndices(4, testRNG(11))
	seen := make(map[int]int)
	for _, fold := range folds {
		for _, idx := range fold {
			seen[idx]++
		}
	}
	if len(seen) != d.Rows() {
		t.Fatalf("folds cover %d distinct rows, want %d", len(seen), d.Rows())
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("row %d appears %d times", idx, n)
		}
	}
	// Clamping.
	if got := d.All().KFoldIndices(1, testRNG(12)); len(got) != 2 {
		t.Errorf("k clamps to 2, got %d folds", len(got))
	}
}

// foldSink keeps KFold results reachable inside AllocsPerRun.
var foldSink []View

// TestKFoldAllocsNotPerRow pins the zero-copy contract of fold
// construction: folds are pure index permutations, so the allocation
// count may grow with slice doublings (logarithmic) but never per row.
// A row-copying implementation would allocate at least one slice per
// row and fail the per-row bound immediately.
func TestKFoldAllocsNotPerRow(t *testing.T) {
	count := func(perClass int) float64 {
		d := blob(2, perClass, 4)
		v := d.All()
		rng := testRNG(42)
		return testing.AllocsPerRun(20, func() {
			trains, vals := v.KFold(5, rng)
			foldSink = trains
			foldSink = vals
		})
	}
	small, big := count(100), count(1600) // 200 vs 3200 rows
	perRow := (big - small) / (3200 - 200)
	if perRow > 0.05 {
		t.Errorf("KFold allocates %.3f times per extra row (%.0f allocs at 200 rows, %.0f at 3200) — folds must be index permutations, not copies",
			perRow, small, big)
	}
}

func TestBootstrapSampling(t *testing.T) {
	d := blob(2, 25, 2)
	b := d.All().Bootstrap(testRNG(13))
	if b.Rows() != d.Rows() {
		t.Errorf("bootstrap has %d rows, want %d", b.Rows(), d.Rows())
	}
}

func TestSelectSharesRows(t *testing.T) {
	d := blob(2, 5, 2)
	s := d.All().Select([]int{0, 1})
	d.Cols[0][0] = 12345
	if s.At(0, 0) != 12345 {
		t.Error("Select should share column storage with the frame")
	}
	m := d.All().Materialize()
	m.Cols[0][1] = -999
	if d.Cols[0][1] == -999 {
		t.Error("Materialize should copy column storage")
	}
}

func TestMetaFeatures(t *testing.T) {
	d := blob(4, 25, 3)
	m := d.All().Meta()
	if m.LogRows <= 0 || m.LogFeatures <= 0 || m.LogClasses <= 0 {
		t.Errorf("log features non-positive: %+v", m)
	}
	if math.Abs(m.ClassEntropy-1) > 1e-9 {
		t.Errorf("balanced dataset entropy %v, want 1", m.ClassEntropy)
	}
	if math.Abs(m.MinorityFrac-0.25) > 1e-9 {
		t.Errorf("minority fraction %v, want 0.25", m.MinorityFrac)
	}
	if m.CategoricalFrac != 0 {
		t.Errorf("categorical fraction %v, want 0", m.CategoricalFrac)
	}
	d.Kinds = []FeatureKind{Categorical, Categorical, Numeric}
	if got := d.All().Meta().CategoricalFrac; math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("categorical fraction %v, want 2/3", got)
	}
	vec := m.Vector()
	if len(vec) != 7 {
		t.Errorf("meta vector length %d, want 7", len(vec))
	}
}

func TestMetaImbalance(t *testing.T) {
	var x [][]float64
	var y []int
	for i := 0; i < 90; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 0)
	}
	for i := 0; i < 10; i++ {
		x = append(x, []float64{float64(i)})
		y = append(y, 1)
	}
	m := labeled("skew", x, y, 2).All().Meta()
	if m.ClassEntropy >= 1 {
		t.Errorf("imbalanced entropy %v, want < 1", m.ClassEntropy)
	}
	if math.Abs(m.MinorityFrac-0.1) > 1e-9 {
		t.Errorf("minority fraction %v, want 0.1", m.MinorityFrac)
	}
}
