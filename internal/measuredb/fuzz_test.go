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

// FuzzSnapshotRoundTrip builds a snapshot from fuzz-derived primitives and
// checks encode→decode→encode is the identity, plus that the decoder
// survives (and rejects) arbitrary mutations of valid snapshots.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(0), "", []byte{}, uint8(0))
	f.Add(int64(42), "space{a:integer[0,8]}", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add(int64(-1), "sig", []byte{0xff, 0x00, 0x80, 0x7f, 0x01, 0xfe}, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, sig string, raw []byte, flip uint8) {
		if len(sig) > 1<<12 {
			return
		}
		origins, entries := entriesFromBytes(raw)
		enc := encodeSnapshot(seed, "self", sig, origins, entries)

		gotSeed, gotOrigin, gotSig, gotOrigins, gotEntries, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("decode of a valid snapshot failed: %v", err)
		}
		if gotSeed != seed || gotSig != sig || gotOrigin != "self" {
			t.Fatalf("header round-trip: (%d, %q, %q) != (%d, %q, self)", gotSeed, gotSig, gotOrigin, seed, sig)
		}
		re := encodeSnapshot(gotSeed, gotOrigin, gotSig, gotOrigins, gotEntries)
		if !bytes.Equal(re, enc) {
			t.Fatal("snapshot encode→decode→encode is not the identity")
		}

		// Any single-byte mutation must be caught by the trailing CRC (or a
		// structural check) — never accepted silently, never a panic.
		if len(enc) > 0 {
			mut := append([]byte(nil), enc...)
			mut[int(flip)%len(mut)] ^= 0xa5
			if _, _, _, _, _, err := decodeSnapshot(mut); err == nil {
				t.Fatal("decoder accepted a mutated snapshot")
			}
		}
	})
}

// entriesFromBytes deterministically derives a small, canonically ordered
// entry list from fuzz bytes. Keys must be unique and sorted, matching what
// gather produces; values avoid NaN so bit-level equality holds. Each
// observation gets a valid (origin, seq) identity over a two-origin table.
func entriesFromBytes(raw []byte) ([]string, []entry) {
	origins := []string{"a", "b"}
	seqs := make([]uint64, len(origins))
	var es []entry
	for i := 0; i+1 < len(raw) && len(es) < 8; i += 2 {
		dim := int(raw[i]%3) + 1
		p := make(space.Point, dim)
		p[0] = float64(len(es)) // strictly increasing ⇒ keys unique and sorted
		for j := 1; j < dim; j++ {
			p[j] = float64(int8(raw[i+1])) / 4
		}
		oi := uint32(raw[i] % 2)
		nobs := int(raw[i+1]%4) + 1
		obs := make([]float64, nobs)
		meta := make([]obsMeta, nobs)
		for j := range obs {
			obs[j] = float64(int(raw[i])*j) / 8
			seqs[oi]++
			meta[j] = obsMeta{origin: oi, seq: seqs[oi]}
		}
		es = append(es, entry{point: p, obs: obs, meta: meta})
	}
	return origins, es
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
