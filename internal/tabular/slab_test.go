package tabular

import (
	"math"
	"testing"
)

func TestFloat64SlabRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-308, math.NaN()}
	data := AppendFloat64Slab(nil, vals)
	if len(data) != Float64SlabSize(len(vals)) {
		t.Fatalf("encoded %d bytes, want %d", len(data), Float64SlabSize(len(vals)))
	}
	got, err := DecodeFloat64Slab(data, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		// Bit equality, not numeric equality: NaN payloads and -0 must
		// survive, or byte-identity of warm reruns breaks.
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			t.Errorf("value %d: got bits %016x, want %016x", i, math.Float64bits(got[i]), math.Float64bits(v))
		}
	}
}

func TestFloat64SlabAppendsToPrefix(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	data := AppendFloat64Slab(prefix, []float64{2.5})
	if len(data) != 2+8 {
		t.Fatalf("got %d bytes, want 10", len(data))
	}
	if data[0] != 0xAA || data[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	got, err := DecodeFloat64Slab(data[2:], 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2.5 {
		t.Fatalf("got %v, want 2.5", got[0])
	}
}

func TestDecodeFloat64SlabShortBuffer(t *testing.T) {
	if _, err := DecodeFloat64Slab(make([]byte, 15), 2); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := DecodeFloat64Slab(nil, -1); err == nil {
		t.Fatal("negative length accepted")
	}
	// 8·2^61 wraps to 0 bytes; the guard must not trust that product.
	if _, err := DecodeFloat64Slab(nil, 1<<61); err == nil {
		t.Fatal("length whose byte size overflows accepted")
	}
}

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
