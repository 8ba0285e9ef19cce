package atomicio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Checksummed envelope: atomic writes make torn artifacts impossible,
// but they cannot defend a long-lived artifact against what happens
// after the rename — bit rot, a truncating copy, a stray editor. Files
// that are read back months later (serialized model artifacts, anything
// internal/artifact stores) therefore carry a self-verifying envelope:
//
//	offset 0  "AIO1"                 4-byte magic
//	offset 4  uint32 LE              CRC32 (IEEE) of the payload
//	offset 8  uint64 LE              payload length in bytes
//	offset 16 payload
//
// ReadFileChecksummed refuses anything that does not verify, with a
// two-kind taxonomy: ErrMalformed for files that are not envelopes at
// all (wrong magic, header torn off), ErrChecksum for envelopes whose
// payload no longer matches its recorded length or CRC. Callers layer
// their own format versioning inside the payload.

var (
	// ErrChecksum marks an envelope whose payload fails CRC or length
	// verification — the file was valid once and has since been damaged.
	ErrChecksum = errors.New("payload fails checksum verification")
	// ErrMalformed marks a file that is not a checksummed envelope at
	// all: wrong magic or too short to carry the header.
	ErrMalformed = errors.New("not a checksummed envelope")
)

// envelopeMagic brands checksummed envelopes on disk.
var envelopeMagic = [4]byte{'A', 'I', 'O', '1'}

// envelopeHeaderLen is the fixed byte length of the envelope header.
const envelopeHeaderLen = 16

// WriteFileChecksummedBytes atomically writes payload wrapped in the
// self-verifying envelope ReadFileChecksummed consumes.
func WriteFileChecksummedBytes(path string, payload []byte) error {
	var header [envelopeHeaderLen]byte
	copy(header[:4], envelopeMagic[:])
	binary.LittleEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(header[8:16], uint64(len(payload)))
	return WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(header[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// ReadFileChecksummed reads a checksummed envelope and returns its
// verified payload. Damage is refused, never repaired: a wrong magic or
// missing header is ErrMalformed, a length or CRC mismatch is
// ErrChecksum, and both identify the offending path.
func ReadFileChecksummed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("atomicio: reading %s: %w", path, err)
	}
	return VerifyChecksummed(path, data)
}

// VerifyChecksummed validates raw envelope bytes (as read from path,
// which is only used for error context) and returns the payload.
func VerifyChecksummed(path string, data []byte) ([]byte, error) {
	if len(data) < envelopeHeaderLen {
		return nil, fmt.Errorf("atomicio: %s: %d-byte file cannot hold the %d-byte envelope header: %w",
			path, len(data), envelopeHeaderLen, ErrMalformed)
	}
	if !bytes.Equal(data[:4], envelopeMagic[:]) {
		return nil, fmt.Errorf("atomicio: %s: magic %q is not %q: %w", path, data[:4], envelopeMagic[:], ErrMalformed)
	}
	wantCRC := binary.LittleEndian.Uint32(data[4:8])
	wantLen := binary.LittleEndian.Uint64(data[8:16])
	payload := data[envelopeHeaderLen:]
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("atomicio: %s: payload is %d bytes, header promises %d: %w",
			path, len(payload), wantLen, ErrChecksum)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("atomicio: %s: payload CRC %08x, header promises %08x: %w",
			path, got, wantCRC, ErrChecksum)
	}
	return payload, nil
}
