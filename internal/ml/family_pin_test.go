package ml

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"
)

// familyPinDigest is the SHA-256 of every case's Name, fit and predict
// Costs and PredictProba bits, plus the forest regressor's
// PredictWithStd mean and std bits, recorded before the linear models,
// the forest fit loops, the row-wise predict loops and the MLP's predict
// forward were each folded into one implementation.
const familyPinDigest = "4aac30d53b21fbfadd591ae0153ad59ed9912595ab1481a8a13c74b33d04cffc"

// pinnedFamilies lists one model per registry classifier family, small
// enough that the pin runs in well under a second. The SVM runs with
// and without L2 decay (its hinge step's two branches), and the MLP has
// two hidden layers.
func pinnedFamilies() []Classifier {
	return []Classifier{
		NewTreeClassifier(TreeParams{MaxDepth: 6}),
		NewForestClassifier(ForestParams{Trees: 6, Bootstrap: true, Tree: TreeParams{MaxDepth: 6}}),
		NewForestClassifier(ForestParams{Trees: 6, ExtraTrees: true, Tree: TreeParams{MaxDepth: 6}}),
		NewBoostingClassifier(BoostingParams{Rounds: 5, Tree: TreeParams{MaxDepth: 3}}),
		NewKNN(KNNParams{K: 4}),
		NewLogisticRegression(LinearParams{Epochs: 6, L2: 1e-3}),
		NewLinearSVM(LinearParams{Epochs: 6}),
		NewLinearSVM(LinearParams{Epochs: 6, L2: 1e-3}),
		NewGaussianNB(),
		NewBernoulliNB(0.5),
		NewMLP(MLPParams{Hidden: []int{8, 5}, Epochs: 4}),
	}
}

// TestModelFamiliesAreExact pins every classifier family end to end,
// on binary and three-class data, each through a contiguous and a
// subset (shuffled Select) view for both fit and predict. The forest
// regressor the Bayesian-optimization surrogate uses is pinned on the
// same views through PredictWithStd.
func TestModelFamiliesAreExact(t *testing.T) {
	h := sha256.New()
	for _, classes := range []int{2, 3} {
		train := benchDataset(150, 7, classes, uint64(40+classes))
		test := benchDataset(70, 7, classes, uint64(50+classes))
		for _, subset := range []bool{false, true} {
			tr, te := train.All(), test.All()
			if subset {
				tr = tr.Select(rand.New(rand.NewPCG(uint64(classes), 0x71)).Perm(tr.Rows())[:120])
				te = te.Select(rand.New(rand.NewPCG(uint64(classes), 0x72)).Perm(te.Rows())[:55])
			}
			for _, proto := range pinnedFamilies() {
				name := fmt.Sprintf("%s/classes=%d/subset=%v", proto.Name(), classes, subset)
				m := proto.Clone()
				fitCost, err := m.Fit(tr, testRNG(uint64(7*classes)))
				if err != nil {
					t.Fatalf("%s: fit: %v", name, err)
				}
				proba, predCost := m.PredictProba(te)
				h.Write([]byte(m.Name()))
				hashCost(h, fitCost)
				hashCost(h, predCost)
				for _, row := range proba {
					for _, p := range row {
						hashFloat(h, p)
					}
				}
			}
			y := make([]float64, tr.Rows())
			for i := range y {
				y[i] = tr.At(i, 0) - 0.5*tr.At(i, 1)
			}
			r := NewForestRegressor(ForestParams{Trees: 6, Bootstrap: true, Tree: TreeParams{MaxDepth: 6, MaxFeatures: 0.8}})
			fitCost, err := r.FitReg(tr, y, testRNG(uint64(9*classes)))
			if err != nil {
				t.Fatalf("forest regressor: %v", err)
			}
			mean, std, predCost := r.PredictWithStd(te)
			hashCost(h, fitCost)
			hashCost(h, predCost)
			for i := range mean {
				hashFloat(h, mean[i])
				hashFloat(h, std[i])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != familyPinDigest {
		t.Fatalf("model-family predictions or Cost moved: digest %s, pinned %s", got, familyPinDigest)
	}
}
