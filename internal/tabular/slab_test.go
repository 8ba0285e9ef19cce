package tabular

import "testing"

func TestFlattenUnflattenRows(t *testing.T) {
	rows := [][]float64{{0.1, 0.9}, {0.7, 0.3}, {0.5}}
	slab, err := FlattenRows(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.9, 0.7, 0.3, 0.5, 0}
	for i, v := range want {
		if slab[i] != v {
			t.Fatalf("slab[%d] = %v, want %v", i, slab[i], v)
		}
	}
	back, err := UnflattenRows(slab, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[1][0] != 0.7 || back[2][1] != 0 {
		t.Fatalf("unflatten mismatch: %v", back)
	}

	if _, err := FlattenRows([][]float64{{1, 2, 3}}, 2); err == nil {
		t.Fatal("over-wide row accepted")
	}
	if _, err := UnflattenRows(slab, 2, 2); err == nil {
		t.Fatal("mis-sized unflatten accepted")
	}
}
