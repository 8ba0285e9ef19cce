package ml

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// colSorter is the reference the tree kernel sorted with before
// sortKeys: a concrete sort.Interface ordering row indices by a column,
// so sort.Sort runs the standard library's pdqsort. sortKeys must leave
// the same permutation, ties included.
type colSorter struct {
	col   []float64
	order []int32
}

func (s *colSorter) Len() int           { return len(s.order) }
func (s *colSorter) Less(a, b int) bool { return s.col[s.order[a]] < s.col[s.order[b]] }
func (s *colSorter) Swap(a, b int)      { s.order[a], s.order[b] = s.order[b], s.order[a] }

// checkSortKeys sorts the rows in start order by col both ways and fails
// on the first position where the permutations differ.
func checkSortKeys(t *testing.T, name string, col []float64, start []int32) {
	t.Helper()
	ref := colSorter{col: col, order: append([]int32(nil), start...)}
	sort.Sort(&ref)
	keys := make([]sortKey, len(start))
	for k, i := range start {
		keys[k] = sortKey{key: col[i], idx: i}
	}
	sortKeys(keys)
	for k, e := range keys {
		if e.idx != ref.order[k] {
			t.Fatalf("%s (n=%d): position %d holds row %d, sort.Sort put row %d there", name, len(col), k, e.idx, ref.order[k])
		}
		if math.Float64bits(e.key) != math.Float64bits(col[e.idx]) {
			t.Fatalf("%s (n=%d): position %d key %v is not row %d's value %v", name, len(col), k, e.key, e.idx, col[e.idx])
		}
	}
}

func identityOrder(n int) []int32 {
	start := make([]int32, n)
	for i := range start {
		start[i] = int32(i)
	}
	return start
}

// sortCase is one column to sort, plus whether to shuffle the start order.
type sortCase struct {
	name    string
	col     []float64
	shuffle bool
}

// sortKeyCases is the fixed corpus shared by the unit test and the fuzz
// seeds.
func sortKeyCases() []sortCase {
	r := rand.New(rand.NewPCG(12, 0x5047))
	var cases []sortCase
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.IntN(3000)
		card := 1 + r.IntN(8) // heavy ties: at most 8 distinct values
		col := make([]float64, n)
		for i := range col {
			col[i] = float64(r.IntN(card))
		}
		cases = append(cases, sortCase{"ties", col, trial%2 == 1})
	}
	for _, n := range []int{2, 12, 13, 49, 50, 51, 257, 2000} {
		asc := make([]float64, n)
		desc := make([]float64, n)
		same := make([]float64, n)
		nans := make([]float64, n)
		zeros := make([]float64, n)
		for i := range asc {
			asc[i] = float64(i / 3)
			desc[i] = float64(n - i)
			same[i] = 4.5
			nans[i] = float64(r.IntN(4))
			if r.IntN(4) == 0 {
				nans[i] = math.NaN()
			}
			zeros[i] = 0
			if r.IntN(2) == 0 {
				zeros[i] = math.Copysign(0, -1)
			}
			if r.IntN(8) == 0 {
				zeros[i] = float64(r.IntN(3) - 1)
			}
		}
		cases = append(cases,
			sortCase{"presorted", asc, false},
			sortCase{"reversed", desc, false},
			sortCase{"all-equal", same, false},
			sortCase{"all-equal-shuffled", same, true},
			sortCase{"nan", nans, false},
			sortCase{"nan-shuffled", nans, true},
			sortCase{"signed-zero", zeros, false},
			sortCase{"signed-zero-shuffled", zeros, true},
		)
	}
	return cases
}

func shuffledOrder(n int, seed uint64) []int32 {
	start := identityOrder(n)
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	r.Shuffle(n, func(a, b int) { start[a], start[b] = start[b], start[a] })
	return start
}

// TestSortKeysMatchesSortSort pins sortKeys to sort.Sort's permutation:
// the regression split scan's float prefix sums depend on tie order, so
// any divergence would move fitted trees and every Cost downstream.
func TestSortKeysMatchesSortSort(t *testing.T) {
	for i, c := range sortKeyCases() {
		start := identityOrder(len(c.col))
		if c.shuffle {
			start = shuffledOrder(len(c.col), uint64(i))
		}
		checkSortKeys(t, c.name, c.col, start)
	}
	checkSortKeys(t, "empty", nil, nil)
}

// fuzzColumn decodes fuzz bytes into a tie-heavy column: most bytes map
// to one of 32 small integers, and four byte values map to NaN, -0, +Inf
// and -Inf.
func fuzzColumn(raw []byte) []float64 {
	col := make([]float64, len(raw))
	for i, b := range raw {
		switch b {
		case 0xff:
			col[i] = math.NaN()
		case 0xfe:
			col[i] = math.Copysign(0, -1)
		case 0xfd:
			col[i] = math.Inf(1)
		case 0xfc:
			col[i] = math.Inf(-1)
		default:
			col[i] = float64(b%32) - 8
		}
	}
	return col
}

// fuzzBytes encodes a corpus column for fuzzColumn, keeping its tie
// structure, NaNs and signed zeros.
func fuzzBytes(col []float64) []byte {
	raw := make([]byte, len(col))
	for i, v := range col {
		switch {
		case math.IsNaN(v):
			raw[i] = 0xff
		case v == 0 && math.Signbit(v):
			raw[i] = 0xfe
		default:
			raw[i] = byte(int(v)%24 + 8)
		}
	}
	return raw
}

// FuzzSortKeys checks sortKeys against sort.Sort on arbitrary tie-heavy
// columns and start orders.
func FuzzSortKeys(f *testing.F) {
	for i, c := range sortKeyCases() {
		seed := uint64(0)
		if c.shuffle {
			seed = uint64(i) + 1
		}
		f.Add(fuzzBytes(c.col), seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte, shuffle uint64) {
		col := fuzzColumn(raw)
		start := identityOrder(len(col))
		if shuffle != 0 {
			start = shuffledOrder(len(col), shuffle)
		}
		checkSortKeys(t, "fuzz", col, start)
	})
}
