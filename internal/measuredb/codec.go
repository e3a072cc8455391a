// Binary codec for the measurement database's one on-disk file, the
// write-ahead log. The encoding is fully deterministic — no maps are
// iterated, no wall-clock state is written, floats are stored as their exact
// IEEE-754 bit patterns — so two same-seed tuning runs produce byte-identical
// files, a property the db-smoke target and the golden tests pin.
//
// Since codec version 2 every observation carries its federation identity:
// the origin (the store that first recorded it) and a per-origin sequence
// number. The pair is the observation's rid — the set-union merge key the
// anti-entropy sync protocol (internal/feddb) and offline merge share — so
// identity survives compaction, shipping, and re-merging.
//
// WAL (append-only journal, one frame per raw measurement):
//
//	header | frame | frame | ...
//	header = magic "PMDBWAL1" | uvarint version | uint64 seed (BE)
//	       | uvarint len(origin) | origin | uvarint len(space) | space sig
//	frame  = the internal/frame envelope around payload
//	payload = uvarint dim | dim × float64 bits (BE) | float64 value bits (BE)
//	        | uvarint len(origin) | origin | uvarint seq
//
// Compaction rewrites the same format: the current header followed by every
// origin's frames in (origin, seq) order.
//
// The decoder reads through frame.Reader, so every uvarint must be minimal
// and every accepted frame re-encodes to itself — the property the fuzz
// target pins. A torn or bit-flipped frame is detected by the frame CRC (or
// a short read) and recovery truncates the file at the last good frame.
package measuredb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"paratune/internal/frame"
	"paratune/internal/space"
)

const (
	walMagic     = "PMDBWAL1"
	codecVersion = 2

	// maxDim bounds a decoded dimension so hostile input cannot force a huge
	// allocation before a CRC or length check catches it.
	maxDim = 1 << 10

	// maxOriginLen bounds an origin name.
	maxOriginLen = 255

	// maxSpaceSigLen bounds the space signature a WAL header holds; a
	// persistent store refuses to bind a longer one (adoptSpace), so it
	// never writes a header it cannot read back.
	maxSpaceSigLen = 1 << 16

	// maxFrame bounds one WAL frame payload: uvarint dim + maxDim coords +
	// the value + origin + seq, with slack.
	maxFrame = 32 + 8*(maxDim+1) + maxOriginLen
)

// errCorrupt marks any decoding failure. WAL recovery treats every corrupt
// (or truncated) frame identically: truncate at the frame's start offset.
var errCorrupt = errors.New("measuredb: corrupt record")

// appendHeader appends a WAL header to dst.
func appendHeader(dst []byte, seed int64, origin, spaceSig string) []byte {
	dst = append(dst, walMagic...)
	dst = binary.AppendUvarint(dst, codecVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(seed))
	dst = frame.AppendString(dst, origin)
	return frame.AppendString(dst, spaceSig)
}

// decodeHeader reads a WAL header, returning the seed, origin, space
// signature, and the number of bytes consumed.
func decodeHeader(b []byte) (seed int64, origin, spaceSig string, n int, err error) {
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		return 0, "", "", 0, fmt.Errorf("measuredb: bad magic (want %q)", walMagic)
	}
	r := frame.NewReader(b[len(walMagic):])
	if version := r.Uvarint(); r.Err() != nil || version != codecVersion {
		return 0, "", "", 0, fmt.Errorf("measuredb: unsupported version %d", version)
	}
	seed = int64(r.U64())
	origin = boundedStr(&r, maxOriginLen)
	spaceSig = boundedStr(&r, maxSpaceSigLen)
	if r.Err() != nil {
		return 0, "", "", 0, errCorrupt
	}
	return seed, origin, spaceSig, len(b) - r.Len(), nil
}

// boundedStr reads a uvarint-length-prefixed string of at most max bytes.
func boundedStr(r *frame.Reader, max int) string {
	s := r.Str()
	if len(s) > max {
		r.Fail()
	}
	return s
}

// appendMeasurementPayload appends one frame payload — the canonical bytes
// the per-origin digest hash chains over — to dst.
func appendMeasurementPayload(dst []byte, p space.Point, v float64, origin string, seq uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	for _, c := range p {
		dst = frame.AppendF64(dst, c)
	}
	dst = frame.AppendF64(dst, v)
	dst = frame.AppendString(dst, origin)
	return binary.AppendUvarint(dst, seq)
}

// walRec is one decoded WAL frame.
type walRec struct {
	point  space.Point
	value  float64
	origin string
	seq    uint64
}

// decodeWALFrame decodes the frame at the start of b, returning the record
// and the bytes consumed. Any framing, CRC, or payload problem — including a
// frame that runs past the end of b (a torn tail write) — returns errCorrupt.
func decodeWALFrame(b []byte) (rec walRec, n int, err error) {
	payload, n, err := frame.Split(b, maxFrame)
	if err != nil {
		return walRec{}, 0, errCorrupt
	}
	if rec, err = decodeMeasurement(payload); err != nil {
		return walRec{}, 0, errCorrupt
	}
	return rec, n, nil
}

// decodeMeasurement decodes exactly one
// `uvarint dim | coords | value | origin | seq` payload.
func decodeMeasurement(payload []byte) (rec walRec, err error) {
	r := frame.NewReader(payload)
	dim := r.Count(8)
	if dim > maxDim {
		return walRec{}, errCorrupt
	}
	rec.point = make(space.Point, dim)
	for i := range rec.point {
		rec.point[i] = r.F64()
	}
	rec.value = r.F64()
	rec.origin = boundedStr(&r, maxOriginLen)
	rec.seq = r.Uvarint()
	if r.Finish() != nil || rec.seq == 0 {
		return walRec{}, errCorrupt
	}
	return rec, nil
}

// chainHash extends a per-origin digest hash with one frame's canonical
// payload bytes: FNV-1a over the previous hash (big-endian) followed by the
// payload. The chain is order-sensitive, incrementally maintainable, and
// recomputable from any store holding the same frames — equal chains at
// equal highs mean byte-identical per-origin histories.
func chainHash(h uint64, payload []byte) uint64 {
	var hb [8]byte
	binary.BigEndian.PutUint64(hb[:], h)
	x := uint64(fnvOffset)
	for _, b := range hb {
		x = (x ^ uint64(b)) * fnvPrime
	}
	for _, b := range payload {
		x = (x ^ uint64(b)) * fnvPrime
	}
	return x
}
