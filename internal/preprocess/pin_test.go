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
