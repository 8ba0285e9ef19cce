package preprocess

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ml"
	"repro/internal/tabular"
)

// scalerPinDigest is the SHA-256 of every case's Name, FitTransform and
// Transform outputs and Costs, recorded before the three scalers shared
// one Transform.
const scalerPinDigest = "775efe3f775137155fb2ad6f4612c87899bb18e94770b3466a3e24290890cfb8"

// pinFrame builds an n-row frame with a spread column, a NaN-bearing
// column, a constant column and a heavily tied column.
func pinFrame(n int, seed uint64) *tabular.Frame {
	r := rand.New(rand.NewPCG(seed, 0x5c))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		nan := r.NormFloat64()*3 + 1
		if r.IntN(5) == 0 {
			nan = math.NaN()
		}
		x[i] = []float64{r.NormFloat64()*10 - 4, nan, 2.5, float64(r.IntN(3))}
		y[i] = i % 2
	}
	return labeled("pin", x, y, 2)
}

// TestImputersAndScalersAreExact pins the imputers and scalers: their
// FitTransform on training data and Transform on new data, on a
// contiguous and a subset view of frames with NaN and constant columns.
func TestImputersAndScalersAreExact(t *testing.T) {
	h := sha256.New()
	train, test := pinFrame(60, 1), pinFrame(25, 2)
	for _, subset := range []bool{false, true} {
		tr, te := train.All(), test.All()
		if subset {
			tr = tr.Select(rand.New(rand.NewPCG(3, 0x5d)).Perm(tr.Rows())[:45])
			te = te.Select(rand.New(rand.NewPCG(4, 0x5d)).Perm(te.Rows())[:20])
		}
		for _, tf := range []Transformer{
			&Imputer{}, &Imputer{Median: true},
			&StandardScaler{}, &MinMaxScaler{}, &RobustScaler{},
		} {
			out, fitCost, err := tf.FitTransform(tr, testRNG(5))
			if err != nil {
				t.Fatalf("%s: %v", tf.Name(), err)
			}
			again, cost := tf.Transform(te)
			h.Write([]byte(tf.Name()))
			for _, v := range []tabular.View{out, again} {
				for j := 0; j < v.Features(); j++ {
					for i := 0; i < v.Rows(); i++ {
						pinFloat(h, v.At(i, j))
					}
				}
			}
			for _, c := range []ml.Cost{fitCost, cost} {
				pinFloat(h, c.Generic)
				pinFloat(h, c.Tree)
				pinFloat(h, c.Matrix)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scalerPinDigest {
		t.Fatalf("imputer or scaler outputs or Cost moved: digest %s, pinned %s", got, scalerPinDigest)
	}
}

// pinFloat hashes v's bits, with every NaN as one word: NaN payloads
// and signs differ across CPU architectures, and the pin is about the
// arithmetic, not about which NaN a platform makes.
func pinFloat(h hash.Hash, v float64) {
	bits := math.Float64bits(v)
	if math.IsNaN(v) {
		bits = 0x7ff8000000000001
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], bits)
	h.Write(buf[:])
}

// pcaPinDigest is the SHA-256 of every case's PCA FitTransform and
// Transform outputs and Costs, recorded before the power iteration
// double-buffered its vectors.
const pcaPinDigest = "52b43b279749bf2411c564c5b3b2237e1852d628a2ddb84fa2f82bf1fb815621"

// TestPCAIsExact pins PCA's power iteration: full-rank and rank-deficient
// frames, on a contiguous and a subset view, with K below and above the
// width. The all-constant frame has a zero covariance, so every component
// takes the early break and keeps its random start vector.
func TestPCAIsExact(t *testing.T) {
	h := sha256.New()
	r := rand.New(rand.NewPCG(6, 0x5e))
	frames := make([]*tabular.Frame, 3)
	for f := range frames {
		x := make([][]float64, 50)
		y := make([]int, len(x))
		for i := range x {
			a, b := r.NormFloat64()*4, r.NormFloat64()
			switch f {
			case 0:
				x[i] = []float64{a, b, r.NormFloat64() * 2, a - b, r.Float64()}
			case 1:
				x[i] = []float64{a, 2 * a, 1.5, -a, b}
			default:
				x[i] = []float64{3, -1, 0.25}
			}
			y[i] = i % 2
		}
		frames[f] = labeled("pca", x, y, 2)
	}
	for _, fr := range frames {
		for _, subset := range []bool{false, true} {
			tr := fr.All()
			if subset {
				tr = tr.Select(rand.New(rand.NewPCG(7, 0x5e)).Perm(tr.Rows())[:35])
			}
			for _, k := range []int{2, 8} {
				p := &PCA{K: k}
				out, fitCost, err := p.FitTransform(tr, testRNG(uint64(k)))
				if err != nil {
					t.Fatal(err)
				}
				for a := range p.components {
					for b := a + 1; b < len(p.components); b++ {
						if &p.components[a][0] == &p.components[b][0] {
							t.Fatalf("components %d and %d share memory", a, b)
						}
					}
				}
				again, cost := p.Transform(fr.All())
				for _, v := range []tabular.View{out, again} {
					for j := 0; j < v.Features(); j++ {
						for i := 0; i < v.Rows(); i++ {
							pinFloat(h, v.At(i, j))
						}
					}
				}
				for _, c := range []ml.Cost{fitCost, cost} {
					pinFloat(h, c.Generic)
					pinFloat(h, c.Tree)
					pinFloat(h, c.Matrix)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pcaPinDigest {
		t.Fatalf("PCA outputs or Cost moved: digest %s, pinned %s", got, pcaPinDigest)
	}
}
