package measuredb

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"paratune/internal/frame"
	"paratune/internal/space"
)

// walFrame builds one framed WAL record for test input.
func walFrame(dst []byte, p space.Point, v float64, origin string, seq uint64) []byte {
	return frame.Append(dst, appendMeasurementPayload(nil, p, v, origin, seq))
}

// FuzzWALDecode throws arbitrary bytes at the WAL frame decoder: it must
// never panic, never report success on data whose CRC does not match, and —
// when it does succeed — consume a prefix that re-encodes to the same bytes.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(walFrame(nil, space.Point{1, 2, 3}, 4.5, "a", 1))
	f.Add(walFrame(walFrame(nil, space.Point{0}, 0, "n0", 1), space.Point{-1}, math.MaxFloat64, "n0", 2))
	trunc := walFrame(nil, space.Point{7, 8}, 9, "peer", 3)
	f.Add(trunc[:len(trunc)-3]) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeWALFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		re := walFrame(nil, rec.point, rec.value, rec.origin, rec.seq)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
	})
}

// FuzzWALDecode's canonical-prefix property needs the encoder to agree with
// itself; pin one golden frame so codec changes are loud.
func TestWALFrameGolden(t *testing.T) {
	frame := walFrame(nil, space.Point{1}, 2, "a", 1)
	// payload: dim=1 (1 byte) + 8 coord + 8 value + origin len (1 byte) +
	// origin "a" (1 byte) + seq uvarint (1 byte) = 20 bytes; framing adds
	// uvarint(20)=1 byte + 4 CRC.
	if len(frame) != 25 {
		t.Fatalf("frame length = %d, want 25", len(frame))
	}
	plen, n := binary.Uvarint(frame)
	if plen != 20 || n != 1 {
		t.Fatalf("frame header = (%d, %d), want (20, 1)", plen, n)
	}
}
