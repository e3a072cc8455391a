package harmony

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"strconv"

	"paratune/internal/feddb"
	"paratune/internal/frame"
	"paratune/internal/space"
)

// The PHWIRE1 binary protocol.
//
// A tuning client opens the conversation with the 8-byte magic preamble
// "PHWIRE1\n"; the server reads the preamble of every new connection and
// closes, unanswered, any connection that opens with neither it nor
// PHSYNC1's. After the preamble both directions exchange internal/frame
// envelopes whose payload is every request/response field in fixed order
// (see appendRequest / appendResponse), in frame's canonical field encoding.
// Every field is read by the peer, and a frame of PHWIRE1's first payload
// layout fails to decode (TestPreRevisionFramesRefused).
//
// The codec is canonical: decoding a frame and re-encoding the result yields
// the same bytes (FuzzBinaryFrameDecode pins this), so a frame duplicated in
// transit is byte-identical to its original. Frame semantics — per-frame
// Seq, per-connection dup suppression — live in handleConn and Client;
// report idempotence lives in the sample slot a report's tag names.

// WireMagic is a tuning client's connection preamble.
const WireMagic = "PHWIRE1\n"

// Wire names a client wire protocol. PHWIRE1 is the only one; the type and
// WireBinary stay because DialOptions.Wire keeps its one existing caller.
type Wire string

// WireBinary is the length-prefixed PHWIRE1 binary protocol.
const WireBinary Wire = "binary"

// wireErrors is the error-code table: each structured error class, paired
// with the frozen code string a response carries for it in Code. The server
// writes Code only from this table (errResponse) and the client maps a code
// back to its sentinel only through it (appError), so errors.Is gives the
// same answer over PHWIRE1 as in-process.
var wireErrors = [...]struct {
	err  error
	code string
}{
	{ErrInvalidValue, "invalid_value"},
	{ErrUnknownSession, "unknown_session"},
}

// wireOp is a request opcode: its value is the wire byte, and wireOps names
// it.
type wireOp byte

// Request opcodes. The values are frozen: they are the wire format. Opcodes
// 2 and 3 (the single-sample fetch and report, now fetchn and reportn of one
// item) and 6 (a resume handshake) are retired and never reused.
const (
	opRegister wireOp = 1
	opBest     wireOp = 4
	opStats    wireOp = 5
	opFetchN   wireOp = 7
	opReportN  wireOp = 8
)

// wireOps is the request op table: the name of each opcode, "" for a byte
// no op uses.
var wireOps = [...]string{
	opRegister: "register", opBest: "best", opStats: "stats",
	opFetchN: "fetchn", opReportN: "reportn",
}

// wireKinds is the parameter-kind table: a kind's index is its frozen wire
// byte, its name is the wireParam form, and kind is the space.Kind it
// stands for.
var wireKinds = [...]struct {
	name string
	kind space.Kind
}{
	{"continuous", space.Continuous},
	{"integer", space.Integer},
	{"discrete", space.Discrete},
}

// Static errors for the hot encode path: returning one allocates nothing.
var (
	errUnknownOp   = errors.New("harmony: unknown op for binary encoding")
	errUnknownKind = errors.New("harmony: unknown parameter kind for binary encoding")
)

// opName maps a wire opcode to its op name.
func opName(code byte) (string, bool) {
	if int(code) < len(wireOps) && wireOps[code] != "" {
		return wireOps[code], true
	}
	return "", false
}

func (op wireOp) String() string {
	if name, ok := opName(byte(op)); ok {
		return name
	}
	return "op(" + strconv.Itoa(int(op)) + ")"
}

// kindCode maps a wireParam kind name to its wire byte.
func kindCode(name string) (byte, bool) {
	for code := range wireKinds {
		if wireKinds[code].name == name {
			return byte(code), true
		}
	}
	return 0, false
}

// kindByte maps a space.Kind to its wire byte.
func kindByte(k space.Kind) (byte, bool) {
	for code := range wireKinds {
		if wireKinds[code].kind == k {
			return byte(code), true
		}
	}
	return 0, false
}

// --- append-style encoders (zero allocations into a caller-owned buffer) ---

// appendFloats appends a uvarint count followed by the values.
func appendFloats(dst []byte, fs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = frame.AppendF64(dst, f)
	}
	return dst
}

// appendRequest encodes req as a PHWIRE1 request payload. Every field is
// written in fixed order regardless of op, so the encoding is canonical.
func appendRequest(dst []byte, req *request) ([]byte, error) {
	if _, ok := opName(byte(req.Op)); !ok {
		return nil, errUnknownOp
	}
	dst = append(dst, byte(req.Op))
	dst = binary.AppendUvarint(dst, req.Seq)
	dst = frame.AppendString(dst, req.Session)
	dst = binary.AppendUvarint(dst, uint64(req.N))
	dst = binary.AppendUvarint(dst, uint64(len(req.Params)))
	for i := range req.Params {
		p := &req.Params[i]
		kind, ok := kindByte(p.Kind)
		if !ok {
			return nil, errUnknownKind
		}
		dst = frame.AppendString(dst, p.Name)
		dst = append(dst, kind)
		dst = frame.AppendF64(dst, p.Lower)
		dst = frame.AppendF64(dst, p.Upper)
		dst = appendFloats(dst, p.Values)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Reports)))
	for i := range req.Reports {
		it := &req.Reports[i]
		dst = binary.AppendUvarint(dst, it.Tag)
		dst = frame.AppendF64(dst, it.Value)
	}
	return dst, nil
}

// Response flag bits.
const (
	respFlagOK        = 1 << 0
	respFlagConverged = 1 << 1
	respFlagStats     = 1 << 2
	respFlagMask      = respFlagOK | respFlagConverged | respFlagStats
)

// appendResponse encodes resp as a PHWIRE1 response payload.
func appendResponse(dst []byte, resp *response) []byte {
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Converged {
		flags |= respFlagConverged
	}
	if resp.Stats != nil {
		flags |= respFlagStats
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, resp.Seq)
	dst = frame.AppendString(dst, resp.Code)
	dst = frame.AppendString(dst, resp.Error)
	dst = appendFloats(dst, resp.Point)
	dst = frame.AppendF64(dst, resp.Value)
	if resp.Stats != nil {
		dst = frame.AppendString(dst, resp.Stats.Name)
		dst = frame.AppendBool(dst, resp.Stats.Converged)
		dst = appendFloats(dst, resp.Stats.Best)
		dst = frame.AppendF64(dst, resp.Stats.BestValue)
		dst = binary.AppendUvarint(dst, uint64(resp.Stats.Pending))
		dst = binary.AppendUvarint(dst, resp.Stats.NextTag)
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Batch)))
	for i := range resp.Batch {
		b := &resp.Batch[i]
		dst = appendFloats(dst, b.Point)
		dst = binary.AppendUvarint(dst, b.Tag)
		dst = frame.AppendBool(dst, b.Converged)
	}
	dst = binary.AppendUvarint(dst, uint64(resp.Accepted))
	dst = binary.AppendUvarint(dst, uint64(resp.Refused))
	return binary.AppendUvarint(dst, uint64(resp.Rejected))
}

// --- decoder ---

// intVal decodes a uvarint that must fit a non-negative int.
func intVal(r *frame.Reader) int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.Fail()
		return 0
	}
	return int(v)
}

// floats decodes a uvarint count followed by the values into a fresh slice;
// nil when empty.
func floats(r *frame.Reader) []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	fs := make([]float64, n)
	for i := range fs {
		fs[i] = r.F64()
	}
	return fs
}

// pointLookback is how many recent distinct points a FetchN reply's grants
// are matched against. The K grants of one candidate repeat its point within
// one pass over the batch, so a batch of up to pointLookback candidates
// yields one point per candidate, and matching stays linear in the grants.
const pointLookback = 16

// recentPoints remembers the last pointLookback distinct points of one
// FetchN reply by their encoded bytes.
type recentPoints struct {
	encs  [pointLookback][]byte
	pts   [pointLookback]space.Point
	added int
}

// find returns the index of the remembered point encoded as enc, -1 when
// none is.
func (t *recentPoints) find(enc []byte) int {
	for i := range min(t.added, pointLookback) {
		if e := t.encs[i]; len(e) == len(enc) && string(e) == string(enc) {
			return i
		}
	}
	return -1
}

// add remembers p, encoded as enc, evicting the oldest entry when full.
func (t *recentPoints) add(enc []byte, p space.Point) {
	i := t.added % pointLookback
	t.encs[i], t.pts[i] = enc, p
	t.added++
}

// distinctFloats counts the floats of the n grants' points that sharedPoint
// will decode: each point whose bytes repeat none of the recent ones. It
// reads a copy of r, which is left where it was.
func distinctFloats(r frame.Reader, n int) int {
	var seen recentPoints
	floats := 0
	for i := 0; i < n && r.Err() == nil; i++ {
		if enc := r.ViewF64s(); len(enc) > 0 && seen.find(enc) < 0 {
			seen.add(enc, nil)
			floats += len(enc) / 8
		}
		r.Uvarint()
		r.Bool()
	}
	return floats
}

// sharedPoint reads one grant's point: nil when empty, the remembered point
// when its bytes repeat a recent one, or else a fresh one carved from the end
// of *slab, which distinctFloats sized.
func sharedPoint(r *frame.Reader, seen *recentPoints, slab *[]float64) space.Point {
	enc := r.ViewF64s()
	if len(enc) == 0 {
		return nil
	}
	if i := seen.find(enc); i >= 0 {
		return seen.pts[i]
	}
	at := len(*slab)
	pr := frame.NewReader(enc)
	for range len(enc) / 8 {
		*slab = append(*slab, pr.F64())
	}
	p := space.Point((*slab)[at:len(*slab):len(*slab)])
	seen.add(enc, p)
	return p
}

// reqScratch holds the per-connection decode scratch the zero-copy path
// reuses across frames: the variable-length reportn section lands in the
// same backing array every time instead of a fresh allocation per batch, and
// a session name that repeats the previous frame's reuses its string.
// Capacity is bounded by maxBatchOps — a frame claiming more items than the
// server would apply falls back to a one-off allocation rather than pinning
// an oversized array for the connection's lifetime.
type reqScratch struct {
	reports []ReportItem
	session string // the previous frame's session name
}

// reportSlice returns an n-item slice for the decode loop to fill, reusing
// the scratch backing array when it can.
func (scr *reqScratch) reportSlice(n int) []ReportItem {
	if n > maxBatchOps {
		return make([]ReportItem, n)
	}
	if cap(scr.reports) < n {
		scr.reports = make([]ReportItem, n)
	}
	scr.reports = scr.reports[:n]
	return scr.reports
}

// reuseStr reads a string, returning *last rather than a fresh copy when the
// bytes repeat it, and remembering a new one in *last.
func reuseStr(r *frame.Reader, last *string) string {
	if b := r.View(); string(b) != *last {
		*last = string(b)
	}
	return *last
}

// decodeRequest parses a PHWIRE1 request payload into req. Every decoded
// field is freshly allocated and owned by the caller.
func decodeRequest(payload []byte, req *request) error {
	return decodeRequestInto(payload, req, &reqScratch{})
}

// decodeRequestInto parses a PHWIRE1 request payload into req, drawing the
// reportn section from scr. req.Reports aliases scr's backing array and is
// valid only until the next decode with the same scratch; strings and
// parameter tables are never overwritten, so everything else in req may be
// retained freely.
func decodeRequestInto(payload []byte, req *request, scr *reqScratch) error {
	r := frame.NewReader(payload)
	op := r.Byte()
	if _, ok := opName(op); !ok {
		return frame.ErrMalformed
	}
	req.Op = wireOp(op)
	req.Seq = r.Uvarint()
	req.Session = reuseStr(&r, &scr.session)
	req.N = intVal(&r)
	if n := r.Count(2); n > 0 {
		req.Params = make([]space.Parameter, n)
		for i := range req.Params {
			p := &req.Params[i]
			p.Name = r.Str()
			kind := r.Byte()
			if int(kind) >= len(wireKinds) {
				return frame.ErrMalformed
			}
			p.Kind = wireKinds[kind].kind
			p.Lower = r.F64()
			p.Upper = r.F64()
			p.Values = floats(&r)
		}
	}
	if n := r.Count(2); n > 0 {
		req.Reports = scr.reportSlice(n)
		for i := range req.Reports {
			it := &req.Reports[i]
			it.Tag = r.Uvarint()
			it.Value = r.F64()
		}
	}
	return r.Finish()
}

// decodeResponse parses a PHWIRE1 response payload into resp. Every string
// and float is copied out, so resp never aliases payload. Grants whose point
// bytes repeat a recent grant's share one decoded point (sharedPoint), as
// the K grants of one candidate do.
func decodeResponse(payload []byte, resp *response) error {
	r := frame.NewReader(payload)
	flags := r.Byte()
	if flags&^byte(respFlagMask) != 0 {
		return frame.ErrMalformed
	}
	resp.OK = flags&respFlagOK != 0
	resp.Converged = flags&respFlagConverged != 0
	resp.Seq = r.Uvarint()
	resp.Code = r.Str()
	resp.Error = r.Str()
	resp.Point = floats(&r)
	resp.Value = r.F64()
	if flags&respFlagStats != 0 {
		st := &SessionStats{}
		st.Name = r.Str()
		st.Converged = r.Bool()
		st.Best = floats(&r)
		st.BestValue = r.F64()
		st.Pending = intVal(&r)
		st.NextTag = r.Uvarint()
		resp.Stats = st
	}
	if n := r.Count(2); n > 0 {
		resp.Batch = make([]FetchResult, n)
		// One slab holds every distinct point, sized by a first pass over
		// the grants.
		slab := make([]float64, 0, distinctFloats(r, n))
		var seen recentPoints
		for i := range resp.Batch {
			b := &resp.Batch[i]
			b.Point = sharedPoint(&r, &seen, &slab)
			b.Tag = r.Uvarint()
			b.Converged = r.Bool()
		}
	}
	resp.Accepted = intVal(&r)
	resp.Refused = intVal(&r)
	resp.Rejected = intVal(&r)
	return r.Finish()
}

// --- codec plumbing shared by the server and client loops ---

// badRequestError marks a parse-level failure the server answers with one
// final "bad request" response before closing the connection.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// binServerCodec speaks PHWIRE1. The encode and decode buffers are reused
// across frames, so a steady-state connection reads requests and writes
// responses without allocating (DESIGN.md "Buffer ownership").
type binServerCodec struct {
	br      *bufio.Reader
	w       io.Writer
	pbuf    []byte // encode: payload scratch
	fbuf    []byte // encode: frame scratch
	rbuf    []byte // decode: frame payload scratch
	scratch reqScratch
}

func (c *binServerCodec) readRequest(req *request) error {
	payload, err := frame.Read(c.br, frame.MaxPayload, &c.rbuf)
	if err != nil {
		if errors.Is(err, frame.ErrMalformed) || errors.Is(err, frame.ErrTooLarge) || errors.Is(err, frame.ErrCRC) {
			return &badRequestError{err: err}
		}
		return err
	}
	if err := decodeRequestInto(payload, req, &c.scratch); err != nil {
		return &badRequestError{err: err}
	}
	return nil
}

func (c *binServerCodec) writeResponse(resp *response) error {
	c.pbuf = appendResponse(c.pbuf[:0], resp)
	c.fbuf = frame.Append(c.fbuf[:0], c.pbuf)
	_, err := c.w.Write(c.fbuf)
	return err
}

// sniffServerCodec reads a freshly accepted connection's 8-byte preamble.
// PHWIRE1 selects the binary codec. PHSYNC1 marks a federation sync peer: the
// codec is nil, and the caller routes the connection to internal/feddb with
// the returned reader, which may hold buffered frames past the preamble. Any
// other preamble is an error, and the caller closes the connection without a
// reply.
func sniffServerCodec(conn net.Conn) (*binServerCodec, *bufio.Reader, error) {
	br := bufio.NewReaderSize(conn, 64*1024)
	var magic [len(WireMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, err
	}
	switch string(magic[:]) {
	case WireMagic:
		return &binServerCodec{br: br, w: conn}, br, nil
	case feddb.SyncMagic:
		return nil, br, nil
	}
	return nil, nil, frame.ErrMalformed
}

// binClientCodec speaks PHWIRE1 from the client side, with the same reused
// encode and decode buffers as the server.
type binClientCodec struct {
	br   *bufio.Reader
	w    io.Writer
	pbuf []byte // encode: payload scratch
	fbuf []byte // encode: frame scratch
	rbuf []byte // decode: frame payload scratch
}

func newBinClientCodec(conn net.Conn) *binClientCodec {
	return &binClientCodec{br: bufio.NewReaderSize(conn, 64*1024), w: conn}
}

func (c *binClientCodec) send(req *request) error {
	payload, err := appendRequest(c.pbuf[:0], req)
	if err != nil {
		return err
	}
	c.pbuf = payload
	c.fbuf = frame.Append(c.fbuf[:0], payload)
	_, err = c.w.Write(c.fbuf)
	return err
}

func (c *binClientCodec) recv(resp *response) error {
	payload, err := frame.Read(c.br, frame.MaxPayload, &c.rbuf)
	if err != nil {
		return err
	}
	return decodeResponse(payload, resp)
}
