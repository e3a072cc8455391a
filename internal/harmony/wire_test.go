package harmony

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"paratune/internal/alloccheck"
	"paratune/internal/frame"
	"paratune/internal/space"
)

// wireRequests is a round-trip corpus covering every opcode and every field
// combination the codec distinguishes.
func wireRequests() []request {
	return []request{
		{Op: opBest, Session: "s", Client: "c", Seq: 1},
		{Op: opFetch, Session: "sess-два", Client: "client/1", Seq: 2},
		{Op: opReport, Session: "s", Tag: 99, Value: 3.25, Seq: 300},
		{Op: opStats, Session: "s", Seq: ^uint64(0)},
		{Op: opBest, Session: "s", Client: "c", Seq: 1 << 40},
		{Op: opFetchN, Session: "s", N: 64, Seq: 7},
		{Op: opReportN, Session: "s", Seq: 8, Reports: []ReportItem{
			{Tag: 1, Value: 0.5},
			{Tag: 2, Value: 1e9},
		}},
		{Op: opRegister, Session: "s", Seq: 9, Params: []space.Parameter{
			{Name: "x", Kind: space.Continuous, Lower: -1.5, Upper: 1.5},
			{Name: "n", Kind: space.Integer, Lower: 0, Upper: 63},
			{Name: "m", Kind: space.Discrete, Values: []float64{1, 2, 4, 8}},
		}},
	}
}

func wireResponses() []response {
	return []response{
		{OK: true, Seq: 1},
		{OK: false, Seq: 2, Code: "unknown_session", Error: "unknown session \"s\""},
		{OK: true, Seq: 3, Point: []float64{1, 2.5, -3}, Tag: 17, Converged: true},
		{OK: true, Seq: 4, Value: 0.125},
		{OK: true, Seq: 5, Stats: &SessionStats{
			Name: "s", Converged: true, Best: []float64{9, 8}, BestValue: 0.25,
			Pending: 4, NextTag: 77,
		}},
		{OK: true, Seq: 6, Batch: []FetchResult{
			{Point: []float64{1, 2}, Tag: 5},
			{Point: []float64{3, 4}, Tag: 6, Converged: true},
		}},
		{OK: true, Seq: 7, Accepted: 10, Refused: 2, Rejected: 1},
	}
}

// TestBinaryRequestRoundTrip pins decode(encode(req)) == req and the
// canonicality property encode(decode(payload)) == payload.
func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, req := range wireRequests() {
		payload, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatalf("%s: encode: %v", req.Op, err)
		}
		var got request
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("%s: decode: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", req.Op, got, req)
		}
		re, err := appendRequest(nil, &got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", req.Op, err)
		}
		if !bytes.Equal(re, payload) {
			t.Errorf("%s: encoding not canonical:\n got %x\nwant %x", req.Op, re, payload)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	for i, resp := range wireResponses() {
		payload := appendResponse(nil, &resp)
		var got response
		if err := decodeResponse(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, resp)
		}
		re := appendResponse(nil, &got)
		if !bytes.Equal(re, payload) {
			t.Errorf("case %d: encoding not canonical", i)
		}
	}
}

// TestBinaryDecodeRejects pins the strictness that makes the codec canonical:
// unknown opcodes, non-minimal uvarints, out-of-range bools, undeclared flag
// bits, non-empty retired slots, truncation, and trailing garbage are all
// malformed.
func TestBinaryDecodeRejects(t *testing.T) {
	valid, err := appendRequest(nil, &request{Op: opBest, Session: "s", Client: "c", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              {},
		"unknown op":         append([]byte{0xee}, valid[1:]...),
		"retired resume op":  append([]byte{6}, valid[1:]...),
		"truncated":          valid[:len(valid)-1],
		"trailing byte":      append(append([]byte{}, valid...), 0),
		"non-minimal seq":    append(append([]byte{valid[0]}, 0x81, 0x00), valid[2:]...),
		"string overruns":    {valid[0], 1, 0xff, 0x7f},
		"huge param count":   append(append([]byte{}, valid[:len(valid)-2]...), 0xff, 0x7f),
		"count eats payload": {valid[0], 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x21},
	}
	// The retired report-id slots, the request's and each report item's,
	// are always the empty string; a non-empty one is malformed.
	report, err := appendRequest(nil, &request{Op: opReport, Session: "s", Client: "c", Seq: 1, Tag: 7, Value: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// op, seq, client "c", session "s", tag, 8-byte value: the slot follows.
	ridAt := 1 + 1 + 2 + 2 + 1 + 8
	cases["non-empty rid"] = slices.Concat(report[:ridAt], []byte{2, 'r', '1'}, report[ridAt+1:])
	reportN, err := appendRequest(nil, &request{Op: opReportN, Session: "s", Client: "c", Seq: 1,
		Reports: []ReportItem{{Tag: 7, Value: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	// The item's slot is the payload's last byte.
	cases["non-empty item rid"] = slices.Concat(reportN[:len(reportN)-1], []byte{1, 'r'})
	for name, payload := range cases {
		var req request
		if err := decodeRequest(payload, &req); err == nil {
			t.Errorf("%s: decodeRequest accepted malformed payload %x", name, payload)
		}
	}

	respValid := appendResponse(nil, &response{OK: true, Seq: 1})
	respCases := map[string][]byte{
		"undeclared flag bit": append([]byte{0x80 | respValid[0]}, respValid[1:]...),
		"stats flag no stats": append([]byte{respFlagStats | respValid[0]}, respValid[1:]...),
		"truncated":           respValid[:len(respValid)-1],
		"trailing":            append(append([]byte{}, respValid...), 7),
	}
	// The four retired counter slots sit just before the five trailing
	// one-byte fields (batch count, accepted, refused, rejected, and the
	// retired queue slot); any non-zero retired slot is malformed.
	slots := len(respValid) - 4 - 5
	for i := 0; i < 4; i++ {
		bad := append([]byte{}, respValid...)
		bad[slots+i] = 1
		respCases["non-zero retired slot "+strconv.Itoa(i)] = bad
	}
	queueSlot := append([]byte{}, respValid...)
	queueSlot[len(queueSlot)-1] = 5
	respCases["non-zero queue slot"] = queueSlot
	for name, payload := range respCases {
		var resp response
		if err := decodeResponse(payload, &resp); err == nil {
			t.Errorf("%s: decodeResponse accepted malformed payload", name)
		}
	}

	// Bool strictness: flip a Stats.Converged byte to 2.
	withStats := appendResponse(nil, &response{OK: true, Seq: 1,
		Stats: &SessionStats{Name: "s", Converged: true}})
	// Find the bool byte: it directly follows the one-byte name "s".
	idx := bytes.Index(withStats, []byte{1, 's', 1})
	if idx < 0 {
		t.Fatal("could not locate stats bool byte in encoding")
	}
	withStats[idx+2] = 2
	var resp response
	if err := decodeResponse(withStats, &resp); err == nil {
		t.Error("decodeResponse accepted bool byte 2")
	}
}

// TestBadFrameDrawsBadRequest pins the server's answer to a broken
// envelope (internal/frame's tests cover every envelope case): one final
// "bad request" reply naming the violation, then the connection closes.
func TestBadFrameDrawsBadRequest(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	rw := newRawWire(t, l.Addr().String())
	bad := rw.frame(&request{Op: opBest, Session: "s", Seq: 1})
	bad[len(bad)-1] ^= 0x01
	if _, err := rw.conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	_ = rw.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, ok := rw.readResp()
	if !ok || resp.OK || !strings.HasPrefix(resp.Error, "bad request: ") || !strings.Contains(resp.Error, "CRC") {
		t.Fatalf("corrupt frame answered %+v (ok %v), want a bad request naming the CRC", resp, ok)
	}
	if _, ok := rw.readResp(); ok {
		t.Error("connection stayed open after a bad request")
	}
}

// TestJSONLineClosedUnanswered sends a JSON request line, a connection that
// opens with neither PHWIRE1's nor PHSYNC1's preamble: the server closes it
// without writing a byte.
func TestJSONLineClosedUnanswered(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"best","session":"s"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection not closed: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("server answered a JSON line with %q, want no reply", got)
	}
}

// TestBinaryEncodeAllocs pins the steady-state encode path at zero
// allocations per frame once the scratch buffers have grown.
func TestBinaryEncodeAllocs(t *testing.T) {
	req := request{Op: opReport, Session: "tuning-session", Client: "client-1",
		Tag: 42, Value: 1.25, Seq: 1000}
	resp := response{OK: true, Seq: 1000, Point: []float64{1, 2, 3}, Tag: 42}
	pbuf := make([]byte, 0, 1024)
	fbuf := make([]byte, 0, 1024)
	alloccheck.Guard(t, "harmony.appendRequest+frame.Append", 0, func() {
		var err error
		pbuf, err = appendRequest(pbuf[:0], &req)
		if err != nil {
			t.Fatal(err)
		}
		fbuf = frame.Append(fbuf[:0], pbuf)
	})
	alloccheck.Guard(t, "harmony.appendResponse+frame.Append", 0, func() {
		pbuf = appendResponse(pbuf[:0], &resp)
		fbuf = frame.Append(fbuf[:0], pbuf)
	})
}

// TestClientReportNSendAllocs pins the client's reportn send path at zero
// allocations per frame: a frame as Client.ReportN builds it, 16 items of
// tag and value, is encoded and written from the codec's reused buffers.
func TestClientReportNSendAllocs(t *testing.T) {
	items := make([]ReportItem, 16)
	for i := range items {
		items[i] = ReportItem{Tag: uint64(100 + i), Value: 0.5 + float64(i)}
	}
	req := request{Op: opReportN, Session: "tuning-session", Client: "5eed", Reports: items}
	c := &binClientCodec{w: io.Discard}
	send := func() {
		req.Seq++
		if err := c.send(&req); err != nil {
			t.Fatal(err)
		}
	}
	send() // grows the encode buffers
	alloccheck.Guard(t, "harmony.binClientCodec.send/reportn16", 0, send)
}

// reportNFrame encodes one reportn request with n items as a binary frame.
func reportNFrame(t testing.TB, n int) []byte {
	t.Helper()
	items := make([]ReportItem, n)
	for i := range items {
		items[i] = ReportItem{Tag: uint64(i + 1), Value: float64(i) * 0.5}
	}
	payload, err := appendRequest(nil, &request{Op: opReportN, Session: "s", Seq: 1, Reports: items})
	if err != nil {
		t.Fatal(err)
	}
	return frame.Append(nil, payload)
}

// TestBinaryDecodeAllocs pins the steady-state zero-copy decode path: once
// the codec's frame and report scratch have grown, reading a reportn batch
// allocates only its strings — none here, where the session name is a single
// byte the runtime interns — independent of batch size.
func TestBinaryDecodeAllocs(t *testing.T) {
	stream := bytes.Repeat(reportNFrame(t, 128), 128) // alloccheck runs the body 101 times
	c := &binServerCodec{br: bufio.NewReader(bytes.NewReader(stream))}
	var req request
	if err := c.readRequest(&req); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	alloccheck.Guard(t, "harmony.binServerCodec.readRequest/reportn128", 0, func() {
		req = request{}
		if err := c.readRequest(&req); err != nil {
			t.Fatal(err)
		}
	})
	if len(req.Reports) != 128 || req.Reports[127].Tag != 128 {
		t.Fatalf("decoded batch corrupted: len=%d", len(req.Reports))
	}
}

// TestClientRecvAllocs pins the client's steady-state read: the frame lands
// in the codec's reused buffer, so a fetch response costs only its decoded
// point — the one allocation decodeResponse's copy-out makes.
func TestClientRecvAllocs(t *testing.T) {
	var pbuf []byte
	pbuf = appendResponse(pbuf, &response{OK: true, Seq: 3, Point: []float64{24, 8, 0.125}, Tag: 7})
	stream := bytes.Repeat(frame.Append(nil, pbuf), 128) // alloccheck runs the body 101 times
	c := &binClientCodec{br: bufio.NewReader(bytes.NewReader(stream))}
	var resp response
	if err := c.recv(&resp); err != nil { // warm the read buffer
		t.Fatal(err)
	}
	alloccheck.Guard(t, "harmony.binClientCodec.recv/fetch", 1, func() {
		resp = response{}
		if err := c.recv(&resp); err != nil {
			t.Fatal(err)
		}
	})
	if resp.Tag != 7 || len(resp.Point) != 3 {
		t.Fatalf("decoded response corrupted: %+v", resp)
	}
}

// TestDecodeRequestIntoScratchReuse pins the aliasing contract: consecutive
// decodes with one scratch reuse the backing array (no allocation growth),
// and a batch above maxBatchOps falls back to a one-off allocation instead
// of pinning an oversized scratch.
func TestDecodeRequestIntoScratchReuse(t *testing.T) {
	var scr reqScratch
	var req request
	payload, err := appendRequest(nil, &request{Op: opReportN, Session: "s", Seq: 1,
		Reports: []ReportItem{{Tag: 1, Value: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeRequestInto(payload, &req, &scr); err != nil {
		t.Fatal(err)
	}
	first := &req.Reports[0]
	if err := decodeRequestInto(payload, &req, &scr); err != nil {
		t.Fatal(err)
	}
	if &req.Reports[0] != first {
		t.Error("second decode did not reuse the scratch backing array")
	}
	big := make([]ReportItem, maxBatchOps+1)
	for i := range big {
		big[i].Tag = uint64(i + 1)
	}
	payload, err = appendRequest(nil, &request{Op: opReportN, Session: "s", Seq: 2, Reports: big})
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeRequestInto(payload, &req, &scr); err != nil {
		t.Fatal(err)
	}
	if len(req.Reports) != maxBatchOps+1 {
		t.Fatalf("oversized batch decoded to %d items, want %d", len(req.Reports), maxBatchOps+1)
	}
	if cap(scr.reports) > maxBatchOps {
		t.Errorf("oversized batch grew the scratch to cap %d", cap(scr.reports))
	}
}

// BenchmarkDecodeReportN compares the historical allocate-per-frame decode
// with the zero-copy scratch path for a 128-item reportn batch.
func BenchmarkDecodeReportN(b *testing.B) {
	frm := reportNFrame(b, 128)
	b.Run("alloc", func(b *testing.B) {
		var req request
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			br := bufio.NewReader(bytes.NewReader(frm))
			var buf []byte
			payload, err := frame.Read(br, frame.MaxPayload, &buf)
			if err != nil {
				b.Fatal(err)
			}
			req = request{}
			if err := decodeRequest(payload, &req); err != nil {
				b.Fatal(err)
			}
		}
		_ = req
	})
	b.Run("zerocopy", func(b *testing.B) {
		var req request
		c := &binServerCodec{}
		rd := bytes.NewReader(frm)
		c.br = bufio.NewReader(rd)
		// Grow the scratch buffers once so a 1x run measures steady state.
		if err := c.readRequest(&req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(frm)
			c.br.Reset(rd)
			req = request{}
			if err := c.readRequest(&req); err != nil {
				b.Fatal(err)
			}
		}
		_ = req
	})
}

// opCode maps an op name to its wire opcode, the inverse of opName. The
// server and client carry ops as wireOp codes, so only the tests look ops up
// by name.
func opCode(name string) (byte, bool) {
	for code := range wireOps {
		if name != "" && wireOps[code] == name {
			return byte(code), true
		}
	}
	return 0, false
}

// kindName maps a wire kind byte to its wireParam name, the inverse of
// kindCode.
func kindName(code byte) (string, bool) {
	if int(code) < len(wireKinds) {
		return wireKinds[code].name, true
	}
	return "", false
}

// TestWireCodecTablesFrozen sweeps the full byte range in both directions:
// opCode/opName and kindCode/kindName must be exact inverses, every name
// must map to its frozen numeric value (the const block order IS the wire
// format), and every byte outside the tables must be rejected both ways.
func TestWireCodecTablesFrozen(t *testing.T) {
	frozenOps := map[string]byte{
		"register": 1, "fetch": 2, "report": 3, "best": 4,
		"stats": 5, "fetchn": 7, "reportn": 8,
	}
	if _, ok := opName(6); ok {
		t.Error("opName(6) accepted the retired resume opcode; it is never reused")
	}
	frozenKinds := map[string]byte{"continuous": 0, "integer": 1, "discrete": 2}

	for name, code := range frozenOps {
		got, ok := opCode(name)
		if !ok || got != code {
			t.Errorf("opCode(%q) = %d, %v; want %d, true — the frozen wire order moved", name, got, ok, code)
		}
	}
	for name, code := range frozenKinds {
		got, ok := kindCode(name)
		if !ok || got != code {
			t.Errorf("kindCode(%q) = %d, %v; want %d, true — the frozen wire order moved", name, got, ok, code)
		}
	}

	opNames := make(map[byte]string, len(frozenOps))
	for name, code := range frozenOps {
		opNames[code] = name
	}
	kindNames := make(map[byte]string, len(frozenKinds))
	for name, code := range frozenKinds {
		kindNames[code] = name
	}
	for b := 0; b <= 0xFF; b++ {
		code := byte(b)
		name, ok := opName(code)
		if want, known := opNames[code]; known {
			if !ok || name != want {
				t.Errorf("opName(%d) = %q, %v; want %q, true", code, name, ok, want)
			} else if back, ok := opCode(name); !ok || back != code {
				t.Errorf("opCode(opName(%d)) = %d, %v; not an inverse", code, back, ok)
			}
		} else if ok {
			t.Errorf("opName(%d) = %q, true; want rejection of an unassigned opcode", code, name)
		}
		kname, ok := kindName(code)
		if want, known := kindNames[code]; known {
			if !ok || kname != want {
				t.Errorf("kindName(%d) = %q, %v; want %q, true", code, kname, ok, want)
			} else if back, ok := kindCode(kname); !ok || back != code {
				t.Errorf("kindCode(kindName(%d)) = %d, %v; not an inverse", code, back, ok)
			}
		} else if ok {
			t.Errorf("kindName(%d) = %q, true; want rejection of an unassigned kind", code, kname)
		}
	}
}

// TestDispatchCoversWireTables sends every op of wireOps through dispatch
// and every kind of wireKinds through the PHWIRE1 codec and the checkpoint
// form: an op or kind the table names but the server cannot handle fails
// here, before any client sends it. Each op answers OK on a live session,
// and an unknown session's fetch carries its wireErrors code.
func TestDispatchCoversWireTables(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	fr := fetchWork(t, srv, "s")
	for code, name := range wireOps {
		if name == "" {
			continue
		}
		op := wireOp(code)
		req := request{
			Op: op, Session: "s", Params: gs2Params(),
			Tag: fr.Tag, Value: 1, N: 1,
			Reports: []ReportItem{{Tag: fr.Tag, Value: 1}},
		}
		resp := dispatch(srv, &req, nil)
		if resp.Error == fmt.Sprintf("unknown op %q", op) {
			t.Errorf("op %s is in wireOps but dispatch has no arm for it", op)
			continue
		}
		if !resp.OK {
			t.Errorf("op %s: resp = %+v, want OK", op, resp)
		}
	}
	resp := dispatch(srv, &request{Op: opFetch, Session: "ghost"}, nil)
	if resp.OK || newAppError(&resp).err != ErrUnknownSession {
		t.Errorf("fetch of an unknown session: resp = %+v, want code %q", resp, "unknown_session")
	}
	for code, k := range wireKinds {
		reg := request{Op: opRegister, Session: "k", Params: []space.Parameter{{Name: "x", Kind: k.kind, Upper: 1}}}
		var got request
		payload, err := appendRequest(nil, &reg)
		if err == nil {
			err = decodeRequest(payload, &got)
		}
		if err != nil || got.Params[0].Kind != k.kind {
			t.Errorf("kind %q (byte %d) is in wireKinds but does not cross PHWIRE1: %v, %+v", k.name, code, err, got.Params)
		}
		ps, err := fromWireParams([]wireParam{{Name: "x", Kind: k.name}})
		if err != nil || ps[0].Kind != k.kind {
			t.Errorf("kind %q (byte %d) is in wireKinds but fromWireParams gives %+v, %v", k.name, code, ps, err)
			continue
		}
		if back := toWireParams(ps)[0].Kind; back != k.name {
			t.Errorf("toWireParams(%v) = %q, want %q", k.kind, back, k.name)
		}
	}
}

// TestErrorCodesClassifyBothWays sweeps wireErrors: each sentinel, wrapped
// as the server wraps it, is written with its own code, and a reply with
// that code unwraps on the client to that sentinel and no other.
func TestErrorCodesClassifyBothWays(t *testing.T) {
	for _, e := range wireErrors {
		resp := errResponse(fmt.Errorf("%w %q", e.err, "s"))
		if resp.Code != e.code {
			t.Errorf("errResponse(%v).Code = %q, want %q", e.err, resp.Code, e.code)
		}
		err := error(newAppError(&resp))
		for _, other := range wireErrors {
			if got := errors.Is(err, other.err); got != (other.err == e.err) {
				t.Errorf("code %q: errors.Is(err, %v) = %v", e.code, other.err, got)
			}
		}
	}
	if resp := errResponse(errors.New("harmony: something else")); resp.Code != "" {
		t.Errorf("an unclassified error got code %q", resp.Code)
	}
}

// TestUnknownCodeIsPlainPermanentError answers a client's request with a
// failure frame whose code is outside wireErrors, as a newer server might:
// the client surfaces it as a permanent error that matches no sentinel.
func TestUnknownCodeIsPlainPermanentError(t *testing.T) {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		br := bufio.NewReader(sc)
		var magic [len(WireMagic)]byte
		var buf []byte
		var req request
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			t.Errorf("reading the preamble: %v", err)
			return
		}
		payload, err := frame.Read(br, frame.MaxPayload, &buf)
		if err == nil {
			err = decodeRequest(payload, &req)
		}
		if err != nil {
			t.Errorf("reading the request: %v", err)
			return
		}
		resp := response{Seq: req.Seq, Code: "session_evicted", Error: "harmony: session evicted"}
		if _, err := sc.Write(frame.Append(nil, appendResponse(nil, &resp))); err != nil {
			t.Errorf("writing the reply: %v", err)
		}
	}()
	c, err := DialWith("", DialOptions{Retries: 1, Seed: 1, DialFunc: func() (net.Conn, error) { return cc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Fetch("s")
	_ = c.Close()
	<-done
	if err == nil || !IsPermanent(err) {
		t.Fatalf("err = %v, want a permanent application error", err)
	}
	for _, e := range wireErrors {
		if errors.Is(err, e.err) {
			t.Errorf("an unknown code matched %v", e.err)
		}
	}
}

// TestErrorClassesSameInProcessAndOverWire rejects one report and asks for
// one unknown session both from the Server directly and through a PHWIRE1
// Client: errors.Is must give the same answer on both paths.
func TestErrorClassesSameInProcessAndOverWire(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	fr := fetchWork(t, srv, "s")
	cl, _ := dialTest(t, srv)
	paths := []struct {
		name   string
		report func() error
		fetch  func() error
	}{
		{"in-process",
			func() error { return srv.Report("s", fr.Tag, -1) },
			func() error { _, err := srv.Fetch("ghost"); return err }},
		{"phwire1",
			func() error { return cl.Report("s", fr.Tag, -1) },
			func() error { _, err := cl.Fetch("ghost"); return err }},
	}
	for _, p := range paths {
		if err := p.report(); !errors.Is(err, ErrInvalidValue) || errors.Is(err, ErrUnknownSession) {
			t.Errorf("%s: rejected report: err = %v, want ErrInvalidValue only", p.name, err)
		}
		if err := p.fetch(); !errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrInvalidValue) {
			t.Errorf("%s: unknown session: err = %v, want ErrUnknownSession only", p.name, err)
		}
	}
}

// sameLengthFrames frames two payloads for one reused read buffer, failing
// unless they are the same length: frame B must land on exactly the bytes
// frame A was decoded from.
func sameLengthFrames(t *testing.T, a, b []byte) *bufio.Reader {
	t.Helper()
	if len(a) != len(b) || bytes.Equal(a, b) {
		t.Fatalf("payloads must differ at equal length: %d vs %d bytes", len(a), len(b))
	}
	stream := append(frame.Append(nil, a), frame.Append(nil, b)...)
	return bufio.NewReader(bytes.NewReader(stream))
}

// TestBinServerCodecRequestOutlivesNextFrame decodes request A, keeps it,
// and reads a same-length request B with different bytes through the same
// codec. Everything A's caller may keep — strings, parameter names and
// values — must still hold A's bytes. Only the Reports backing
// array is documented as reused, so the item values are copied out first.
func TestBinServerCodecRequestOutlivesNextFrame(t *testing.T) {
	build := func(x string, v float64) request {
		return request{
			Op: opReportN, Seq: 7, Client: "client-" + x, Session: "session-" + x,
			Tag: 3, Value: v, N: 2,
			Params: []space.Parameter{{Name: "param-" + x, Kind: space.Discrete, Values: []float64{v, 2 * v}}},
			Reports: []ReportItem{
				{Tag: 1, Value: v},
				{Tag: 2, Value: 3 * v},
			},
		}
	}
	a, b := build("A", 1.5), build("B", 2.5)
	pa, err := appendRequest(nil, &a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := appendRequest(nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	c := &binServerCodec{br: sameLengthFrames(t, pa, pb)}
	var gotA, gotB request
	if err := c.readRequest(&gotA); err != nil {
		t.Fatal(err)
	}
	gotA.Reports = append([]ReportItem(nil), gotA.Reports...)
	if err := c.readRequest(&gotB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, b) {
		t.Fatalf("frame B decoded as %+v, want %+v", gotB, b)
	}
	if !reflect.DeepEqual(gotA, a) {
		t.Errorf("request A changed when frame B was read:\n got %+v\nwant %+v", gotA, a)
	}
}

// TestBinClientCodecResponseOutlivesNextFrame is the client-side twin: a
// kept response keeps its code, error text, stats and points after the
// codec reads the next same-length frame.
func TestBinClientCodecResponseOutlivesNextFrame(t *testing.T) {
	build := func(x string, v float64) response {
		return response{
			OK: true, Seq: 9, Code: "code-" + x, Error: "error-" + x,
			Point: []float64{v, 2 * v}, Tag: 4, Value: v,
			Stats: &SessionStats{Name: "stats-" + x, Best: []float64{3 * v}, BestValue: v, Pending: 1, NextTag: 5},
			Batch: []FetchResult{{Point: []float64{4 * v, 5 * v}, Tag: 6}},
		}
	}
	a, b := build("A", 1.5), build("B", 2.5)
	c := &binClientCodec{br: sameLengthFrames(t, appendResponse(nil, &a), appendResponse(nil, &b))}
	var gotA, gotB response
	if err := c.recv(&gotA); err != nil {
		t.Fatal(err)
	}
	if err := c.recv(&gotB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, b) {
		t.Fatalf("frame B decoded as %+v, want %+v", gotB, b)
	}
	if !reflect.DeepEqual(gotA, a) {
		t.Errorf("response A changed when frame B was read:\n got %+v\nwant %+v", gotA, a)
	}
}
