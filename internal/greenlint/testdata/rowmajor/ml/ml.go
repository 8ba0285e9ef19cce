// Package ml is the rowmajor fixture: its directory ends in /ml so the
// path-scoped check treats it like the real kernel package.
package ml

func freshMatrix(n int) [][]float64 {
	return make([][]float64, n) // want "make\\(\\[\\]\\[\\]float64"
}

func literalMatrix() [][]float64 {
	return [][]float64{{1, 2}, {3, 4}} // want "literal in the columnar ml kernels"
}

func annotated(n int) [][]float64 {
	//greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	return make([][]float64, n)
}

// intMatrix must not trip the float64-specific check.
func intMatrix(n int) [][]int {
	return make([][]int, n)
}
