package tabular

import "fmt"

// Probability slabs: the evaluation repository (internal/repo) stores
// every grid cell's prediction probabilities as one contiguous
// rows×classes block (internal/atomicio encodes it), and callers that
// work row by row convert with FlattenRows and UnflattenRows.

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
