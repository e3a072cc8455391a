// Package frame is the one envelope every length-prefixed byte stream in
// paratune shares — PHWIRE1 between tuning clients and harmonyd, PHSYNC1
// between federated peers, and the PMDBWAL1 write-ahead log on disk:
//
//	frame = uvarint(len(payload)) | crc32(payload) 4 bytes big-endian | payload
//
// and the strict cursor their payload schemas decode with. Both halves are
// canonical: the length prefix and every payload uvarint must be minimal,
// bools are a single 0/1 byte, floats are IEEE-754 bits big-endian, and a
// payload must be consumed exactly — so decoding an accepted frame and
// re-encoding the result reproduces its bytes. Each protocol keeps only its
// preamble and payload schema; the envelope, its bounds and its fuzzer live
// here.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
)

// MaxPayload bounds a PHWIRE1 or PHSYNC1 payload, mirroring the JSON
// protocol's 1MB line cap. The WAL passes its own, smaller bound.
const MaxPayload = 1 << 20

// maxHeader is the longest envelope header: a 10-byte uvarint and the CRC.
const maxHeader = binary.MaxVarintLen64 + 4

// Structural errors. A stream that ends mid-frame reports
// io.ErrUnexpectedEOF, and one that ends cleanly between frames io.EOF.
var (
	ErrMalformed = errors.New("frame: malformed frame")
	ErrTooLarge  = errors.New("frame: payload exceeds size limit")
	ErrCRC       = errors.New("frame: CRC mismatch")
)

// Append appends payload wrapped in the envelope to dst.
func Append(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendF64 appends f's IEEE-754 bits big-endian.
func AppendF64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendBool appends a single 0/1 byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// size validates a complete length prefix — at most MaxVarintLen64 bytes,
// the last below 0x80 — against max.
func size(prefix []byte, max int) (int, error) {
	v, n := binary.Uvarint(prefix)
	if n != len(prefix) || (n > 1 && prefix[n-1] == 0) {
		return 0, ErrMalformed // overflows 64 bits, or not minimal
	}
	if v > uint64(max) {
		return 0, ErrTooLarge
	}
	return int(v), nil
}

// unexpected maps an EOF inside a frame to io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readHeader reads the next envelope header into hdr and returns the payload
// size and the header length. Transport errors come back as-is.
func readHeader(br *bufio.Reader, max int, hdr *[maxHeader]byte) (int, int, error) {
	n := 0
	for {
		b, err := br.ReadByte()
		if err != nil {
			if n > 0 {
				err = unexpected(err)
			}
			return 0, 0, err
		}
		hdr[n] = b
		n++
		if b < 0x80 {
			break
		}
		if n == binary.MaxVarintLen64 {
			return 0, 0, ErrMalformed
		}
	}
	sz, err := size(hdr[:n], max)
	if err != nil {
		return 0, 0, err
	}
	// The CRC byte by byte: a slice of hdr handed to io.ReadFull would move
	// hdr to the heap on every frame.
	for end := n + 4; n < end; n++ {
		if hdr[n], err = br.ReadByte(); err != nil {
			return 0, 0, unexpected(err)
		}
	}
	return sz, n, nil
}

// Read reads one frame from br and returns its verified payload. The payload
// lands in *buf's backing array when it fits (growing *buf otherwise), so a
// connection rereads frames without allocating; the returned slice aliases
// *buf and is valid only until the next Read into it.
func Read(br *bufio.Reader, max int, buf *[]byte) ([]byte, error) {
	var hdr [maxHeader]byte
	sz, n, err := readHeader(br, max, &hdr)
	if err != nil {
		return nil, err
	}
	if cap(*buf) < sz {
		*buf = make([]byte, sz)
	}
	payload := (*buf)[:sz]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, unexpected(err)
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[n-4:n]) {
		return nil, ErrCRC
	}
	return payload, nil
}

// ReadRaw reads one whole frame from br and returns its bytes, header
// included, in a fresh slice. The length prefix is held to Read's rules but
// the CRC is not checked: a relay forwards deliberately broken frames for
// the endpoints to detect.
func ReadRaw(br *bufio.Reader, max int) ([]byte, error) {
	var hdr [maxHeader]byte
	sz, n, err := readHeader(br, max, &hdr)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, n+sz)
	copy(raw, hdr[:n])
	if _, err := io.ReadFull(br, raw[n:]); err != nil {
		return nil, unexpected(err)
	}
	return raw, nil
}

// Split decodes the frame at the front of b, returning its verified payload
// (a view of b) and the bytes consumed. It fails exactly where Read would on
// the same bytes: io.EOF for empty b, io.ErrUnexpectedEOF for a frame that
// runs past the end of b.
func Split(b []byte, max int) (payload []byte, n int, err error) {
	if len(b) == 0 {
		return nil, 0, io.EOF
	}
	for n < len(b) && b[n] >= 0x80 {
		n++
		if n == binary.MaxVarintLen64 {
			return nil, 0, ErrMalformed
		}
	}
	if n == len(b) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	n++
	sz, err := size(b[:n], max)
	if err != nil {
		return nil, 0, err
	}
	if len(b)-n < 4+sz {
		return nil, 0, io.ErrUnexpectedEOF
	}
	sum := binary.BigEndian.Uint32(b[n:])
	payload = b[n+4 : n+4+sz]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, ErrCRC
	}
	return payload, n + 4 + sz, nil
}

// Reader is a sticky-error cursor over one payload. Decoding is strict:
// uvarints must be minimal, counts must fit the remaining bytes, bools must
// be 0/1, and Finish demands exact consumption. After the first violation
// every read returns the zero value and Err reports ErrMalformed.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) Reader { return Reader{buf: payload} }

// Fail marks the payload malformed; schemas call it for their own checks.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = ErrMalformed
	}
}

// Err reports the first violation, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.Fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads a minimal uvarint. A one-byte value, the common case of
// counts, tags and flags, is read inline.
func (r *Reader) Uvarint() uint64 {
	if r.err == nil && r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1])
	}
	return r.uvarint()
}

// uvarint is Uvarint's general case.
func (r *Reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		r.Fail() // unterminated, overflowing, or not minimal
		return 0
	}
	r.off += n
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if r.err != nil || len(r.buf)-r.off < 8 {
		r.Fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads an element count for elements of at least elemMin encoded
// bytes, so a hostile count cannot force an allocation larger than the
// payload that claims it.
func (r *Reader) Count(elemMin int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(r.Len()/elemMin) {
		r.Fail()
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

// Str reads a uvarint-length-prefixed string.
func (r *Reader) Str() string { return string(r.View()) }

// View reads a uvarint-length-prefixed byte string without copying it: the
// result aliases the payload and is valid only while the payload is.
func (r *Reader) View() []byte {
	n := r.Count(1)
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// ViewF64s reads a uvarint count of float64s and returns their encoded
// bytes, 8 per float, without decoding or copying them: like View's, the
// result aliases the payload.
func (r *Reader) ViewF64s() []byte {
	n := 8 * r.Count(8)
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail()
	}
	return b == 1
}

// Finish returns the first violation, or ErrMalformed if bytes remain.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail()
	}
	return r.err
}
