package atomicio

import (
	"math"
	"testing"
)

// decodeSlab reads an n-value slab from the front of data through a
// fresh Decoder.
func decodeSlab(data []byte, n int) ([]float64, error) {
	d := NewDecoder(data)
	vals := d.Float64s(n)
	return vals, d.Err()
}

func TestFloat64SlabRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-308, math.NaN()}
	data := AppendFloat64s(nil, vals)
	if len(data) != 8*len(vals) {
		t.Fatalf("encoded %d bytes, want %d", len(data), 8*len(vals))
	}
	got, err := decodeSlab(data, len(vals))
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
	data := AppendFloat64s(prefix, []float64{2.5})
	if len(data) != 2+8 {
		t.Fatalf("got %d bytes, want 10", len(data))
	}
	if data[0] != 0xAA || data[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	got, err := decodeSlab(data[2:], 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2.5 {
		t.Fatalf("got %v, want 2.5", got[0])
	}
}

func TestDecodeFloat64SlabShortBuffer(t *testing.T) {
	if _, err := decodeSlab(make([]byte, 15), 2); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := decodeSlab(nil, -1); err == nil {
		t.Fatal("negative length accepted")
	}
	// 8·2^61 wraps to 0 bytes; the guard must not trust that product.
	if _, err := decodeSlab(nil, 1<<61); err == nil {
		t.Fatal("length whose byte size overflows accepted")
	}
}
