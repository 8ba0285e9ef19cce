package tabular

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Slab I/O: the evaluation repository (internal/repo) persists every
// grid cell's prediction probabilities as one contiguous little-endian
// IEEE-754 block, so a cache hit is a single slab copy rather than a
// row-by-row decode. The codec lives here, next to the columnar Frame
// whose layout it mirrors: values are stored exactly as math.Float64bits
// renders them, which makes the round trip bit-exact — NaN payloads and
// signed zeros included — and therefore safe for byte-identity
// guarantees layered on top.

// Float64SlabSize returns the encoded byte length of an n-value slab.
func Float64SlabSize(n int) int { return 8 * n }

// AppendFloat64Slab appends vals to dst as one contiguous little-endian
// float64 block and returns the extended slice.
func AppendFloat64Slab(dst []byte, vals []float64) []byte {
	need := Float64SlabSize(len(vals))
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeFloat64Slab decodes an n-value contiguous float64 block from the
// front of data into a freshly allocated slice. A short buffer is an
// error, never a partial slab.
func DecodeFloat64Slab(data []byte, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("tabular: negative slab length %d", n)
	}
	if n > len(data)/8 {
		return nil, fmt.Errorf("tabular: slab of %d values does not fit in %d bytes", n, len(data))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// FlattenRows packs row-major probability rows into one contiguous
// slab of rows×classes values (row i, class j at i*classes+j). Rows
// shorter than classes are zero-padded; longer rows are an error —
// silently truncating probabilities would corrupt a stored cell.
func FlattenRows(rows [][]float64, classes int) ([]float64, error) {
	out := make([]float64, len(rows)*classes)
	for i, row := range rows {
		if len(row) > classes {
			return nil, fmt.Errorf("tabular: row %d has %d values, slab holds %d classes", i, len(row), classes)
		}
		copy(out[i*classes:(i+1)*classes], row)
	}
	return out, nil
}

// UnflattenRows is the inverse of FlattenRows: it re-slices a contiguous
// slab into rows×classes probability rows. The backing array is shared
// (one allocation for the rows, zero copies of the values), so callers
// must treat the result as read-only.
func UnflattenRows(slab []float64, rows, classes int) ([][]float64, error) {
	if rows < 0 || classes < 0 || len(slab) != rows*classes {
		return nil, fmt.Errorf("tabular: slab of %d values cannot hold %d rows × %d classes", len(slab), rows, classes)
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = slab[i*classes : (i+1)*classes : (i+1)*classes]
	}
	return out, nil
}
