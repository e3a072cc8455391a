// Package feddb federates measurement databases across a fleet: a
// gossip-style anti-entropy protocol that keeps peers' measuredb stores
// convergent, and a read-through cache tier in front of the sharded store.
//
// The protocol rides the existing TCP layer as a sibling of PHWIRE1: a sync
// client opens with the 8-byte preamble "PHSYNC1\n" (the harmony server
// sniffs it exactly like the binary tuning protocol's magic) and both sides
// then exchange internal/frame envelopes whose payload is an op byte and the
// op's fields in fixed order (see appendSyncMsg).
//
// One round is digest-driven: hello carries the caller's per-origin
// (high, chained-hash) digest, digest answers with the server's, and the
// diff decides which per-origin WAL segments ship (pull/frames, push/ack),
// however cold the caller. A round cut short resumes from the next round's
// digest; no other state carries over. Observations are immutable and
// identified by (origin, seq), so applying shipped frames is a set union:
// idempotent, order-independent across origins, and convergent regardless
// of peer pairing or sync ordering (the three-peer property test pins this).
//
// The codec is canonical like PHWIRE1's — frame's field encoding throughout
// — so decoding then re-encoding a valid frame yields the same bytes
// (FuzzSyncFrameDecode pins it).
package feddb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"strconv"

	"paratune/internal/frame"
	"paratune/internal/measuredb"
)

// SyncMagic is the sync client's connection preamble. Same length as the
// PHWIRE1 magic, so a server's codec sniffer reads one 8-byte prefix and
// hands a sync connection to [ServeConn].
const SyncMagic = "PHSYNC1\n"

// maxSyncOrigins bounds a digest's origin list: a fleet has one origin per
// store, so a list anywhere near the frame cap is an attack, not a fleet.
const maxSyncOrigins = 1 << 12

// syncOp is a sync opcode: its value is the wire byte, and syncOps names
// it.
type syncOp byte

// Sync opcodes. The values are frozen: they are the wire format. Opcodes 7
// and 8 (the retired snapshot transfer, snappull/snapchunk) are never reused.
const (
	opHello  syncOp = 1
	opDigest syncOp = 2
	opPull   syncOp = 3
	opFrames syncOp = 4
	opPush   syncOp = 5
	opAck    syncOp = 6
	opError  syncOp = 9
)

// syncOps is the sync op table: the name of each opcode, "" for a byte no
// op uses.
var syncOps = [...]string{
	opHello: "hello", opDigest: "digest", opPull: "pull", opFrames: "frames",
	opPush: "push", opAck: "ack", opError: "error",
}

// errSyncUnknownOp rejects encoding a message with no opcode.
var errSyncUnknownOp = errors.New("feddb: unknown op for sync encoding")

// opName maps a wire opcode to its op name.
func opName(code byte) (string, bool) {
	if int(code) < len(syncOps) && syncOps[code] != "" {
		return syncOps[code], true
	}
	return "", false
}

func (op syncOp) String() string {
	if name, ok := opName(byte(op)); ok {
		return name
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// syncMsg is one protocol message; which fields are meaningful depends on
// Op. The zero value of every unused field encodes (and decodes) as absent.
type syncMsg struct {
	Op syncOp

	// hello / digest: the sender's store identity and anti-entropy summary.
	Seed    int64
	Space   string
	Origins []measuredb.OriginDigest

	// pull: ship origin's frames starting at From, at most Max.
	// frames / push: a contiguous per-origin segment.
	Origin string
	From   uint64
	Max    uint64
	Frames []measuredb.Frame
	// frames: the origin's current high and chain hash at reply time, so
	// the puller can detect divergence once it has caught up.
	High uint64
	Hash uint64

	// ack: the receiver's outcome for a pushed segment.
	Applied uint64
	Dups    uint64

	// error: what went wrong (the connection closes after).
	Detail string
}

// appendSyncMsg encodes m's payload onto dst.
func appendSyncMsg(dst []byte, m *syncMsg) ([]byte, error) {
	if _, ok := opName(byte(m.Op)); !ok {
		return dst, errSyncUnknownOp
	}
	dst = append(dst, byte(m.Op))
	switch m.Op {
	case opHello, opDigest:
		dst = binary.BigEndian.AppendUint64(dst, uint64(m.Seed))
		dst = frame.AppendString(dst, m.Space)
		dst = binary.AppendUvarint(dst, uint64(len(m.Origins)))
		for _, d := range m.Origins {
			dst = frame.AppendString(dst, d.Origin)
			dst = binary.AppendUvarint(dst, d.High)
			dst = binary.BigEndian.AppendUint64(dst, d.Hash)
		}
	case opPull:
		dst = frame.AppendString(dst, m.Origin)
		dst = binary.AppendUvarint(dst, m.From)
		dst = binary.AppendUvarint(dst, m.Max)
	case opFrames:
		dst = frame.AppendString(dst, m.Origin)
		dst = appendSyncFrames(dst, m.Frames)
		dst = binary.AppendUvarint(dst, m.High)
		dst = binary.BigEndian.AppendUint64(dst, m.Hash)
	case opPush:
		dst = frame.AppendString(dst, m.Origin)
		dst = appendSyncFrames(dst, m.Frames)
	case opAck:
		dst = binary.AppendUvarint(dst, m.Applied)
		dst = binary.AppendUvarint(dst, m.Dups)
	case opError:
		dst = frame.AppendString(dst, m.Detail)
	}
	return dst, nil
}

func appendSyncFrames(dst []byte, frames []measuredb.Frame) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(frames)))
	for i := range frames {
		f := &frames[i]
		dst = frame.AppendString(dst, f.Origin)
		dst = binary.AppendUvarint(dst, f.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(f.Point)))
		for _, c := range f.Point {
			dst = frame.AppendF64(dst, c)
		}
		dst = frame.AppendF64(dst, f.Value)
	}
	return dst
}

// decodeSyncMsg parses one sync payload into m. Decoding is strict (minimal
// uvarints, exact consumption), so decode∘encode is the identity on valid
// frames; every field is copied out of payload.
func decodeSyncMsg(payload []byte, m *syncMsg) error {
	r := frame.NewReader(payload)
	op := r.Byte()
	if _, ok := opName(op); !ok {
		return frame.ErrMalformed
	}
	*m = syncMsg{Op: syncOp(op)}
	switch m.Op {
	case opHello, opDigest:
		m.Seed = int64(r.U64())
		m.Space = r.Str()
		if n := r.Count(1); n > 0 {
			if n > maxSyncOrigins {
				return frame.ErrMalformed
			}
			m.Origins = make([]measuredb.OriginDigest, n)
			for i := range m.Origins {
				d := &m.Origins[i]
				d.Origin = r.Str()
				d.High = r.Uvarint()
				d.Hash = r.U64()
			}
		}
	case opPull:
		m.Origin = r.Str()
		m.From = r.Uvarint()
		m.Max = r.Uvarint()
	case opFrames:
		m.Origin = r.Str()
		m.Frames = readFrames(&r, m.Origin)
		m.High = r.Uvarint()
		m.Hash = r.U64()
	case opPush:
		m.Origin = r.Str()
		m.Frames = readFrames(&r, m.Origin)
	case opAck:
		m.Applied = r.Uvarint()
		m.Dups = r.Uvarint()
	case opError:
		m.Detail = r.Str()
	}
	return r.Finish()
}

// readFrames decodes a counted list of measurement frames. A frame reuses
// the previous frame's origin string (origin's for the first) when the
// bytes match, and the points share one slab: every consumer applies the
// frames through measuredb.Store.Apply, which copies what it keeps.
func readFrames(r *frame.Reader, origin string) []measuredb.Frame {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	fs := make([]measuredb.Frame, n)
	var slab []float64
	for i := range fs {
		f := &fs[i]
		if o := r.View(); string(o) != origin {
			origin = string(o)
		}
		f.Origin = origin
		f.Seq = r.Uvarint()
		if dim := r.Count(8); dim > 0 {
			if len(slab) < dim {
				// This dimension for every frame left, but no more floats
				// than the rest of the payload holds.
				slab = make([]float64, min(dim*(n-i), r.Len()/8))
			}
			f.Point, slab = slab[:dim:dim], slab[dim:]
			for j := range f.Point {
				f.Point[j] = r.F64()
			}
		}
		f.Value = r.F64()
	}
	return fs
}

// syncBufs is one connection's reused scratch: the encode payload and
// frame, and the decode payload.
type syncBufs struct {
	payload, frame, read []byte
}

// readSyncMsg reads one frame from br into b.read and decodes it into m.
// Transport errors come back as-is, envelope violations as frame's errors.
func readSyncMsg(br *bufio.Reader, b *syncBufs, m *syncMsg) error {
	payload, err := frame.Read(br, frame.MaxPayload, &b.read)
	if err != nil {
		return err
	}
	return decodeSyncMsg(payload, m)
}

// writeSyncMsg encodes and frames m into b's scratch and writes it in a
// single Write call.
func writeSyncMsg(w io.Writer, b *syncBufs, m *syncMsg) error {
	payload, err := appendSyncMsg(b.payload[:0], m)
	if err != nil {
		return err
	}
	b.payload = payload
	if len(payload) > frame.MaxPayload {
		return frame.ErrTooLarge
	}
	b.frame = frame.Append(b.frame[:0], payload)
	_, err = w.Write(b.frame)
	return err
}
