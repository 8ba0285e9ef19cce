package atomicio

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Payload primitives: the binary formats that live inside checksummed
// envelopes (serving artifacts, repository cells) are little-endian
// throughout. They are built append-style with binary.LittleEndian's
// Append functions and AppendFloat64s, and read back with one Decoder.
// Float64 slabs store each value exactly as math.Float64bits renders it,
// so the round trip is bit-exact, NaN payloads and signed zeros
// included, which byte-identity guarantees layered on top rely on.

// AppendFloat64s appends vals to dst as one contiguous little-endian
// float64 slab and returns the extended slice.
func AppendFloat64s(dst []byte, vals []float64) []byte {
	dst = slices.Grow(dst, 8*len(vals))
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Decoder is a cursor over a verified payload. It latches its first
// error: every read after a failure returns a zero value, so a format
// decoder reads its fields linearly and checks Err once.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder returns a cursor at the start of payload.
func NewDecoder(payload []byte) Decoder {
	return Decoder{data: payload}
}

// Err returns the first error the cursor met, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail latches err unless an earlier error is already latched, so a
// format decoder can refuse a structurally impossible field through the
// same single check.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Bytes returns the next n bytes. The result aliases the payload; a
// caller that keeps it past the payload's lifetime must copy it.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining() {
		d.Fail(fmt.Errorf("payload truncated at byte %d (want %d more, %d remain)", d.off, n, d.Remaining()))
		return nil
	}
	out := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return out
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	if b := d.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Blob16 reads a blob behind a uint16 length prefix. Like Bytes, the
// result aliases the payload.
func (d *Decoder) Blob16() []byte { return d.Bytes(int(d.U16())) }

// Blob32 reads a blob behind a uint32 length prefix. Like Bytes, the
// result aliases the payload.
func (d *Decoder) Blob32() []byte { return d.Bytes(int(d.U32())) }

// Float64s reads an n-value float64 slab into a freshly allocated
// slice. A slab that does not fit in the remaining bytes is an error,
// never a partial slab; the size check divides first, so no n can wrap
// 8·n past it.
func (d *Decoder) Float64s(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Remaining()/8 {
		d.Fail(fmt.Errorf("slab of %d float64 values does not fit in the %d remaining bytes", n, d.Remaining()))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off+8*i:]))
	}
	d.off += 8 * n
	return out
}
