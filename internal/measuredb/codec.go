// Binary codec for the measurement database's two on-disk artefacts. Both
// encodings are fully deterministic — no maps are iterated, no wall-clock
// state is written, floats are stored as their exact IEEE-754 bit patterns —
// so two same-seed tuning runs produce byte-identical files, a property the
// db-smoke target and the round-trip tests pin.
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
// Snapshot (aggregate state, one entry per configuration, sorted by key):
//
//	header | uvarint #origins | #origins × (uvarint len | origin)
//	       | uvarint #configs | entry... | crc32 of everything before (BE)
//	header = magic "PMDBSNP1" | ... (same fields as the WAL header)
//	entry  = uvarint dim | dim × float64 bits (BE) | uvarint #obs
//	       | #obs × (float64 bits (BE) | uvarint origin index | uvarint seq)
//
// The snapshot's origin table is sorted and deduplicated, and entries list
// observations in the store's canonical (origin, seq) order, so the encoding
// stays a pure function of the store's logical content.
//
// Both decoders read through frame.Reader, so every uvarint must be minimal
// and every accepted byte sequence re-encodes to itself — the property the
// fuzz round-trip targets pin.
//
// A torn or bit-flipped WAL tail is detected by the frame CRC (or a short
// read) and recovery truncates the file at the last good frame; a snapshot
// failing its trailing CRC is rejected outright — the snapshot is written
// atomically (tmp + rename), so a damaged one means external interference,
// not a crash mid-write.
package measuredb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"paratune/internal/frame"
	"paratune/internal/space"
)

const (
	walMagic     = "PMDBWAL1"
	snapMagic    = "PMDBSNP1"
	codecVersion = 2

	// maxDim and maxObs bound decoded counts so hostile input cannot force
	// huge allocations before a CRC or length check catches it.
	maxDim = 1 << 10
	maxObs = 1 << 24

	// maxOriginLen bounds an origin name; maxOrigins bounds a snapshot's
	// origin table (one entry per store that ever contributed a frame).
	maxOriginLen = 255
	maxOrigins   = 1 << 16

	// maxFrame bounds one WAL frame payload: uvarint dim + maxDim coords +
	// the value + origin + seq, with slack.
	maxFrame = 32 + 8*(maxDim+1) + maxOriginLen
)

// errCorrupt marks any decoding failure. WAL recovery treats every corrupt
// (or truncated) frame identically: truncate at the frame's start offset.
var errCorrupt = errors.New("measuredb: corrupt record")

// appendHeader appends a file header to dst.
func appendHeader(dst []byte, magic string, seed int64, origin, spaceSig string) []byte {
	dst = append(dst, magic...)
	dst = binary.AppendUvarint(dst, codecVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(seed))
	dst = frame.AppendString(dst, origin)
	return frame.AppendString(dst, spaceSig)
}

// decodeHeader reads a file header, returning the seed, origin, space
// signature, and the number of bytes consumed.
func decodeHeader(b []byte, magic string) (seed int64, origin, spaceSig string, n int, err error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return 0, "", "", 0, fmt.Errorf("measuredb: bad magic (want %q)", magic)
	}
	r := frame.NewReader(b[len(magic):])
	if version := r.Uvarint(); r.Err() != nil || version != codecVersion {
		return 0, "", "", 0, fmt.Errorf("measuredb: unsupported version %d", version)
	}
	seed = int64(r.U64())
	origin = boundedStr(&r, maxOriginLen)
	spaceSig = boundedStr(&r, 1<<16)
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

// obsMeta is one observation's federation identity: the origin (as an index
// into the store's interned origin table) and the per-origin sequence.
type obsMeta struct {
	origin uint32
	seq    uint64
}

// entry is one configuration's aggregate state in codec form: the point, its
// raw observations, and their per-observation identity, all in canonical
// (origin, seq) order. meta origin indices refer to the origin table passed
// alongside the entries.
type entry struct {
	point space.Point
	obs   []float64
	meta  []obsMeta
}

// encodeSnapshot serialises entries (which must already be in canonical key
// order, with meta indices into origins, which must be sorted and unique)
// with the trailing whole-file CRC.
func encodeSnapshot(seed int64, origin, spaceSig string, origins []string, entries []entry) []byte {
	out := appendHeader(nil, snapMagic, seed, origin, spaceSig)
	out = binary.AppendUvarint(out, uint64(len(origins)))
	for _, o := range origins {
		out = frame.AppendString(out, o)
	}
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = binary.AppendUvarint(out, uint64(len(e.point)))
		for _, c := range e.point {
			out = frame.AppendF64(out, c)
		}
		out = binary.AppendUvarint(out, uint64(len(e.obs)))
		for i, o := range e.obs {
			out = frame.AppendF64(out, o)
			out = binary.AppendUvarint(out, uint64(e.meta[i].origin))
			out = binary.AppendUvarint(out, e.meta[i].seq)
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decodeSnapshot parses a snapshot file, verifying the trailing CRC before
// trusting any of the content. The returned origin table is validated sorted
// and unique, and every meta index points into it.
func decodeSnapshot(b []byte) (seed int64, origin, spaceSig string, origins []string, entries []entry, err error) {
	if len(b) < 4 {
		return 0, "", "", nil, nil, errCorrupt
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return 0, "", "", nil, nil, fmt.Errorf("measuredb: snapshot CRC mismatch")
	}
	seed, origin, spaceSig, n, err := decodeHeader(body, snapMagic)
	if err != nil {
		return 0, "", "", nil, nil, err
	}
	r := frame.NewReader(body[n:])
	// Counts are bounded by the bytes left as well as by the named limits:
	// an origin takes at least 1 byte, an entry 2, an observation 10.
	norigins := r.Count(1)
	if norigins > maxOrigins {
		return 0, "", "", nil, nil, errCorrupt
	}
	origins = make([]string, 0, norigins)
	for i := 0; i < norigins; i++ {
		o := boundedStr(&r, maxOriginLen)
		if r.Err() != nil || o == "" || (len(origins) > 0 && o <= origins[len(origins)-1]) {
			return 0, "", "", nil, nil, errCorrupt
		}
		origins = append(origins, o)
	}
	count := r.Count(2)
	if count > maxObs {
		return 0, "", "", nil, nil, errCorrupt
	}
	entries = make([]entry, 0, count)
	for i := 0; i < count; i++ {
		dim := r.Count(8)
		if r.Err() != nil || dim > maxDim {
			return 0, "", "", nil, nil, errCorrupt
		}
		p := make(space.Point, dim)
		for j := range p {
			p[j] = r.F64()
		}
		nobs := r.Count(10)
		if r.Err() != nil || nobs > maxObs {
			return 0, "", "", nil, nil, errCorrupt
		}
		obs := make([]float64, 0, nobs)
		meta := make([]obsMeta, 0, nobs)
		for j := 0; j < nobs; j++ {
			v := r.F64()
			oi := r.Uvarint()
			seq := r.Uvarint()
			if r.Err() != nil || oi >= uint64(len(origins)) || seq == 0 {
				return 0, "", "", nil, nil, errCorrupt
			}
			obs = append(obs, v)
			meta = append(meta, obsMeta{origin: uint32(oi), seq: seq})
		}
		entries = append(entries, entry{point: p, obs: obs, meta: meta})
	}
	if r.Finish() != nil {
		return 0, "", "", nil, nil, errCorrupt
	}
	return seed, origin, spaceSig, origins, entries, nil
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
