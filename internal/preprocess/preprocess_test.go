package preprocess

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tabular"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e)) }

// labeled builds a labeled frame from row-major fixture rows.
func labeled(name string, x [][]float64, y []int, classes int) *tabular.Frame {
	f := tabular.FromRows(x).Frame()
	f.Name, f.Y, f.Classes = name, y, classes
	return f
}

func sample() *tabular.Frame {
	return labeled("sample", [][]float64{
		{1, 10, 0},
		{2, 20, 1},
		{3, 30, 0},
		{4, 40, 1},
	}, []int{0, 0, 1, 1}, 2)
}

func allTransformers() map[string]Transformer {
	return map[string]Transformer{
		"identity": Identity{},
		"imputer":  &Imputer{},
		"median":   &Imputer{Median: true},
		"standard": &StandardScaler{},
		"minmax":   &MinMaxScaler{},
		"robust":   &RobustScaler{},
		"onehot":   &OneHotEncoder{},
		"variance": &VarianceThreshold{Threshold: 0.01},
		"selectk":  &SelectKBest{K: 2},
		"pca":      &PCA{K: 2},
	}
}

// TestFitTransformMatchesTransform is the core contract: transforming the
// training rows again must reproduce the FitTransform output.
func TestFitTransformMatchesTransform(t *testing.T) {
	for name, tr := range allTransformers() {
		ds := sample()
		out, cost, err := tr.FitTransform(ds.All(), testRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "identity" && cost.Total() <= 0 {
			t.Errorf("%s: no cost reported", name)
		}
		again, _ := tr.Transform(ds.All())
		if again.Rows() != out.Rows() {
			t.Fatalf("%s: row count changed", name)
		}
		if again.Features() != out.Features() {
			t.Fatalf("%s: width changed: %d vs %d", name, again.Features(), out.Features())
		}
		for i := 0; i < again.Rows(); i++ {
			for j := 0; j < again.Features(); j++ {
				if math.Abs(again.At(i, j)-out.At(i, j)) > 1e-9 {
					t.Fatalf("%s: cell (%d,%d) differs: %v vs %v", name, i, j, again.At(i, j), out.At(i, j))
				}
			}
		}
		// Labels and classes pass through.
		if out.Classes() != ds.Classes || len(out.LabelsInto(nil)) != len(ds.Y) {
			t.Errorf("%s: labels altered", name)
		}
	}
}

func TestImputerFillsNaN(t *testing.T) {
	ds := sample()
	ds.Cols[0][1] = math.NaN()
	im := &Imputer{}
	out, _, err := im.FitTransform(ds.All(), testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Mean of {1,3,4} = 8/3.
	if math.Abs(out.At(1, 0)-8.0/3) > 1e-9 {
		t.Errorf("mean imputation %v, want %v", out.At(1, 0), 8.0/3)
	}
	med := &Imputer{Median: true}
	ds2 := sample()
	ds2.Cols[1][0] = math.NaN()
	out2, _, _ := med.FitTransform(ds2.All(), testRNG(3))
	// Median of {20,30,40} = 30.
	if out2.At(0, 1) != 30 {
		t.Errorf("median imputation %v, want 30", out2.At(0, 1))
	}
	// New rows with NaN are filled at Transform time too.
	filled, _ := im.Transform(tabular.FromRows([][]float64{{math.NaN(), 5, 1}}))
	if math.IsNaN(filled.At(0, 0)) {
		t.Error("Transform left NaN behind")
	}
}

func TestStandardScalerStats(t *testing.T) {
	ds := sample()
	s := &StandardScaler{}
	out, _, err := s.FitTransform(ds.All(), testRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	n := out.Rows()
	for j := 0; j < 2; j++ {
		var mean, sq float64
		for i := 0; i < n; i++ {
			mean += out.At(i, j)
		}
		mean /= float64(n)
		for i := 0; i < n; i++ {
			sq += (out.At(i, j) - mean) * (out.At(i, j) - mean)
		}
		std := math.Sqrt(sq / float64(n))
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Errorf("column %d standardized to mean %v std %v", j, mean, std)
		}
	}
}

func TestMinMaxScalerRange(t *testing.T) {
	ds := sample()
	s := &MinMaxScaler{}
	out, _, err := s.FitTransform(ds.All(), testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < out.Rows(); i++ {
		for j := 0; j < out.Features(); j++ {
			if v := out.At(i, j); v < 0 || v > 1 {
				t.Errorf("column %d value %v outside [0,1]", j, v)
			}
		}
	}
	// Constant columns survive (span guards against /0).
	flat := labeled("", [][]float64{{5}, {5}}, []int{0, 1}, 2)
	out2, _, err := (&MinMaxScaler{}).FitTransform(flat.All(), testRNG(6))
	if err != nil || math.IsNaN(out2.At(0, 0)) {
		t.Errorf("constant column broke min-max: %v %v", out2.At(0, 0), err)
	}
}

func TestRobustScalerIgnoresOutliers(t *testing.T) {
	ds := labeled("", [][]float64{{1}, {2}, {3}, {4}, {1000}}, []int{0, 0, 1, 1, 1}, 2)
	r := &RobustScaler{}
	out, _, err := r.FitTransform(ds.All(), testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	// The non-outlier points must stay within a few units of zero
	// (median 3, IQR 3): a standard scaler would compress them to ~0.
	for i := 0; i < 4; i++ {
		if math.Abs(out.At(i, 0)) > 2 {
			t.Errorf("robust-scaled inlier %v too extreme", out.At(i, 0))
		}
	}
}

func TestOneHotEncoder(t *testing.T) {
	ds := labeled("", [][]float64{
		{0, 1.5},
		{1, 2.5},
		{2, 3.5},
		{0, 4.5},
	}, []int{0, 1, 0, 1}, 2)
	ds.Kinds = []tabular.FeatureKind{tabular.Categorical, tabular.Numeric}
	e := &OneHotEncoder{}
	out, _, err := e.FitTransform(ds.All(), testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	// 3 categories + 1 numeric column = 4 output columns.
	if got := out.Features(); got != 4 {
		t.Fatalf("one-hot width %d, want 4", got)
	}
	// Row 0 has category 0 -> indicator [1,0,0].
	if out.At(0, 0) != 1 || out.At(0, 1) != 0 || out.At(0, 2) != 0 {
		t.Errorf("row 0 indicators [%v %v %v]", out.At(0, 0), out.At(0, 1), out.At(0, 2))
	}
	if out.At(0, 3) != 1.5 {
		t.Errorf("numeric column displaced: %v", out.At(0, 3))
	}
	// An unseen category maps to all-zero indicators.
	unseen, _ := e.Transform(tabular.FromRows([][]float64{{9, 7.5}}))
	if unseen.At(0, 0) != 0 || unseen.At(0, 1) != 0 || unseen.At(0, 2) != 0 {
		t.Errorf("unseen category indicators [%v %v %v]", unseen.At(0, 0), unseen.At(0, 1), unseen.At(0, 2))
	}
	// High-cardinality columns pass through untouched.
	var wideX [][]float64
	var wideY []int
	for i := 0; i < 40; i++ {
		wideX = append(wideX, []float64{float64(i)})
		wideY = append(wideY, i%2)
	}
	wide := labeled("", wideX, wideY, 2)
	wide.Kinds = []tabular.FeatureKind{tabular.Categorical}
	e2 := &OneHotEncoder{MaxCategories: 8}
	out2, _, err := e2.FitTransform(wide.All(), testRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Features() != 1 {
		t.Errorf("high-cardinality column expanded to %d columns", out2.Features())
	}
}

func TestVarianceThresholdDropsConstants(t *testing.T) {
	ds := labeled("", [][]float64{
		{1, 7, 0.1},
		{2, 7, 0.2},
		{3, 7, 0.3},
	}, []int{0, 1, 0}, 2)
	v := &VarianceThreshold{Threshold: 0.001}
	out, _, err := v.FitTransform(ds.All(), testRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if out.Features() != 2 {
		t.Fatalf("kept %d columns, want 2 (constant column dropped)", out.Features())
	}
	// All-constant input keeps one column rather than none.
	flat := labeled("", [][]float64{{1, 1}, {1, 1}}, []int{0, 1}, 2)
	out2, _, _ := (&VarianceThreshold{Threshold: 0.5}).FitTransform(flat.All(), testRNG(11))
	if out2.Features() != 1 {
		t.Errorf("all-constant input kept %d columns, want 1", out2.Features())
	}
}

func TestSelectKBestKeepsInformativeColumns(t *testing.T) {
	rng := testRNG(12)
	var x [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		c := i % 2
		// Column 0: informative. Columns 1, 2: noise.
		x = append(x, []float64{5*float64(c) + rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, c)
	}
	ds := labeled("", x, y, 2)
	s := &SelectKBest{K: 1}
	out, _, err := s.FitTransform(ds.All(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Features() != 1 {
		t.Fatalf("kept %d columns, want 1", out.Features())
	}
	// The surviving column must be the informative one: its class means
	// must differ strongly.
	var mean0, mean1 float64
	var n0, n1 int
	for i := 0; i < out.Rows(); i++ {
		if ds.Y[i] == 0 {
			mean0 += out.At(i, 0)
			n0++
		} else {
			mean1 += out.At(i, 0)
			n1++
		}
	}
	if math.Abs(mean1/float64(n1)-mean0/float64(n0)) < 3 {
		t.Error("select-k-best kept a noise column")
	}
}

func TestPCADimensionAndVariance(t *testing.T) {
	rng := testRNG(13)
	var x [][]float64
	var y []int
	// Data varies along one dominant direction.
	for i := 0; i < 120; i++ {
		s := rng.NormFloat64() * 5
		x = append(x, []float64{s + 0.1*rng.NormFloat64(), s + 0.1*rng.NormFloat64(), 0.1 * rng.NormFloat64()})
		y = append(y, i%2)
	}
	ds := labeled("", x, y, 2)
	p := &PCA{K: 2}
	out, _, err := p.FitTransform(ds.All(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Features() != 2 {
		t.Fatalf("PCA output width %d, want 2", out.Features())
	}
	// The first component must capture far more variance than the
	// second.
	var v0, v1 float64
	for i := 0; i < out.Rows(); i++ {
		v0 += out.At(i, 0) * out.At(i, 0)
		v1 += out.At(i, 1) * out.At(i, 1)
	}
	if v0 < 10*v1 {
		t.Errorf("PCA components not variance-ordered: %v vs %v", v0, v1)
	}
	// K clamps to the width.
	p2 := &PCA{K: 99}
	out2, _, _ := p2.FitTransform(ds.All(), rng)
	if out2.Features() != 3 {
		t.Errorf("PCA K clamp: got %d components", out2.Features())
	}
}

func TestSelectKBestEmptyData(t *testing.T) {
	s := &SelectKBest{K: 1}
	if _, _, err := s.FitTransform((&tabular.Frame{Classes: 2}).All(), testRNG(14)); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestTransformerNames(t *testing.T) {
	for key, tr := range allTransformers() {
		if tr.Name() == "" {
			t.Errorf("%s: empty name", key)
		}
	}
	if (&Imputer{Median: true}).Name() == (&Imputer{}).Name() {
		t.Error("imputer variants share a name")
	}
}
