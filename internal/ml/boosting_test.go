package ml

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// boostingPinDigest is the SHA-256 of every case's PredictProba bits and
// fit and predict Costs, recorded on the kernel that sorted every
// regression node from scratch — before boosting shared one root
// presort across its trees and trees partitioned presorted key
// segments down to their children.
const boostingPinDigest = "0a6c6e0262aaaf8012f6497339c5474798355d3c942295175729a85061066855"

// TestBoostingSharedPresortIsExact pins gradient boosting end to end:
// the trees that share a root presort and partition key segments must
// predict the same bits at the same Cost as trees that sort every node.
// The cases cover full-row and subsampled rounds (one presort per fit
// versus one per round), binary and multiclass softmax, a subset input
// view, and equivDataset's tie-free, tied, constant, NaN-bearing and
// signed-zero columns.
func TestBoostingSharedPresortIsExact(t *testing.T) {
	h := sha256.New()
	for _, subsample := range []float64{1, 0.6} {
		for _, classes := range []int{2, 4} {
			for _, depth := range []int{3, 6} {
				for _, subset := range []bool{false, true} {
					name := fmt.Sprintf("subsample=%v/classes=%d/depth=%d/subset=%v", subsample, classes, depth, subset)
					ds := equivDataset(260, 9, classes, uint64(classes*10+depth))
					v := ds.All()
					if subset {
						v = v.Select(rand.New(rand.NewPCG(uint64(depth), 0x5b)).Perm(v.Rows())[:200])
					}
					b := NewBoostingClassifier(BoostingParams{Rounds: 8, Subsample: subsample, Tree: TreeParams{MaxDepth: depth}})
					fitCost, err := b.Fit(v, rand.New(rand.NewPCG(uint64(classes), uint64(depth))))
					if err != nil {
						t.Fatalf("%s: fit: %v", name, err)
					}
					proba, predCost := b.PredictProba(ds.All())
					hashCost(h, fitCost)
					hashCost(h, predCost)
					for _, row := range proba {
						for _, p := range row {
							hashFloat(h, p)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != boostingPinDigest {
		t.Fatalf("boosting predictions or Cost moved: digest %s, pinned %s", got, boostingPinDigest)
	}
}

// TestSharedPresortIsReadOnly fits regression trees from one shared
// root presort on several goroutines at once. Each must match a tree
// that built its own presort, and under -race any write to the shared
// keys is reported.
func TestSharedPresortIsReadOnly(t *testing.T) {
	ds := equivDataset(300, 9, 3, 11)
	v := ds.All().Select(rand.New(rand.NewPCG(3, 3)).Perm(300)[:240])
	p := TreeParams{MaxDepth: 5}
	presort := newKeyPresort(v)
	defer presort.release()
	const fits = 4
	shared := make([]*TreeRegressor, fits)
	var wg sync.WaitGroup
	for w := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y := make([]float64, v.Rows())
			for i := range y {
				y[i] = v.At(i, 0)*float64(w+1) - v.At(i, 3)
			}
			tree := NewTreeRegressor(p)
			tree.presort = presort
			if _, err := tree.FitReg(v, y, rand.New(rand.NewPCG(uint64(w), 1))); err != nil {
				t.Error(err)
			}
			shared[w] = tree
		}()
	}
	wg.Wait()
	for w, tree := range shared {
		y := make([]float64, v.Rows())
		for i := range y {
			y[i] = v.At(i, 0)*float64(w+1) - v.At(i, 3)
		}
		own := NewTreeRegressor(p)
		if _, err := own.FitReg(v, y, rand.New(rand.NewPCG(uint64(w), 1))); err != nil {
			t.Fatal(err)
		}
		if tree.core.cost != own.core.cost {
			t.Fatalf("fit %d: cost %+v with the shared presort, %+v without", w, tree.core.cost, own.core.cost)
		}
		compareNodes(t, &tree.core, &own.core)
	}
}

func hashCost(h hash.Hash, c Cost) {
	hashFloat(h, c.Generic)
	hashFloat(h, c.Tree)
	hashFloat(h, c.Matrix)
}

func hashFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}
