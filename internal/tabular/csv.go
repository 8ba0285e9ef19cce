package tabular

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CSVOptions configure dataset parsing.
type CSVOptions struct {
	// TargetColumn names the label column; empty uses the last column.
	TargetColumn string
	// HasHeader marks the first row as column names (default assumed
	// true when any first-row cell is non-numeric).
	HasHeader bool
	// MaxCategories is the distinct-value threshold below which a
	// non-numeric column becomes categorical codes (default 64; columns
	// above it are rejected as likely identifiers).
	MaxCategories int
	// MissingValues lists cell strings treated as missing (default
	// "", "?", "NA", "NaN", "null").
	MissingValues []string
}

func (o CSVOptions) normalized() CSVOptions {
	if o.MaxCategories <= 0 {
		o.MaxCategories = 64
	}
	if o.MissingValues == nil {
		o.MissingValues = []string{"", "?", "NA", "NaN", "null"}
	}
	return o
}

// ReadCSV parses a delimited file into a labeled Frame: numeric columns
// stay numeric (missing cells become NaN for the imputer), non-numeric
// columns are ordinal-encoded as categorical codes, and the target column
// becomes integer class labels. This is the entry point for running the
// library on real data rather than the synthetic AMLB replicas.
func ReadCSV(r io.Reader, opts CSVOptions) (*Frame, error) {
	opts = opts.normalized()
	reader := csv.NewReader(r)
	reader.TrimLeadingSpace = true
	rows, err := reader.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("tabular: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("tabular: empty csv")
	}

	header := rows[0]
	hasHeader := opts.HasHeader
	if !hasHeader {
		// Heuristic: a first row with any non-numeric, non-missing cell
		// is a header.
		for _, cell := range header {
			if !isMissing(cell, opts.MissingValues) {
				if _, err := strconv.ParseFloat(strings.TrimSpace(cell), 64); err != nil {
					hasHeader = true
					break
				}
			}
		}
	}
	var names []string
	var data [][]string
	if hasHeader {
		names = header
		data = rows[1:]
	} else {
		names = make([]string, len(header))
		for i := range names {
			names[i] = fmt.Sprintf("col%d", i)
		}
		data = rows
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("tabular: csv has a header but no data rows")
	}

	width := len(names)
	if width < 2 {
		return nil, fmt.Errorf("tabular: csv needs a target and at least one feature column, got %d column(s)", width)
	}
	for i, row := range data {
		if len(row) != width {
			return nil, fmt.Errorf("tabular: row %d has %d cells, want %d", i+1, len(row), width)
		}
	}

	// Locate the target column.
	target := width - 1
	if opts.TargetColumn != "" {
		target = -1
		for i, n := range names {
			if n == opts.TargetColumn {
				target = i
				break
			}
		}
		if target < 0 {
			return nil, fmt.Errorf("tabular: target column %q not found", opts.TargetColumn)
		}
	}

	// Classify feature columns as numeric or categorical.
	type colInfo struct {
		numeric bool
		codes   map[string]int
		order   []string
	}
	infos := make([]colInfo, width)
	for j := 0; j < width; j++ {
		numeric := true
		distinct := map[string]bool{}
		for _, row := range data {
			cell := strings.TrimSpace(row[j])
			if isMissing(cell, opts.MissingValues) {
				continue
			}
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				numeric = false
			}
			distinct[cell] = true
		}
		info := colInfo{numeric: numeric}
		if !numeric || j == target {
			if len(distinct) > opts.MaxCategories && j != target {
				return nil, fmt.Errorf("tabular: column %q has %d distinct non-numeric values (max %d) — likely an identifier",
					names[j], len(distinct), opts.MaxCategories)
			}
			info.order = make([]string, 0, len(distinct))
			for v := range distinct {
				info.order = append(info.order, v)
			}
			sort.Strings(info.order)
			info.codes = make(map[string]int, len(info.order))
			for code, v := range info.order {
				info.codes[v] = code
			}
		}
		infos[j] = info
	}

	// Target labels are the codes of the sorted distinct label strings,
	// numeric or not: "10" sorts before "2". A missing label has no code.
	f := NewFrame("csv", len(data), width-1)
	f.Y = make([]int, len(data))
	f.Classes = len(infos[target].order)
	f.Kinds = make([]FeatureKind, 0, width-1)
	for j := 0; j < width; j++ {
		if j == target {
			continue
		}
		if infos[j].numeric {
			f.Kinds = append(f.Kinds, Numeric)
		} else {
			f.Kinds = append(f.Kinds, Categorical)
		}
	}

	for i, row := range data {
		label := strings.TrimSpace(row[target])
		code, ok := infos[target].codes[label]
		if !ok {
			return nil, fmt.Errorf("tabular: row %d: unknown label %q", i+1, label)
		}
		f.Y[i] = code
		k := 0
		for j, cell := range row {
			if j == target {
				continue
			}
			cell = strings.TrimSpace(cell)
			switch {
			case isMissing(cell, opts.MissingValues):
				f.Cols[k][i] = math.NaN()
			case infos[j].numeric:
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("tabular: row %d column %q: %w", i+1, names[j], err)
				}
				f.Cols[k][i] = v
			default:
				f.Cols[k][i] = float64(infos[j].codes[cell])
			}
			k++
		}
	}

	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("tabular: parsed csv invalid: %w", err)
	}
	return f, nil
}

func isMissing(cell string, missing []string) bool {
	cell = strings.TrimSpace(cell)
	for _, m := range missing {
		if strings.EqualFold(cell, m) {
			return true
		}
	}
	return false
}
