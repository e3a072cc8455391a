package harmony

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
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
		{Op: opBest, Session: "s", Seq: 1},
		{Op: opFetchN, Session: "sess-два", N: 1, Seq: 2},
		{Op: opReportN, Session: "s", Reports: []ReportItem{{Tag: 99, Value: 3.25}}, Seq: 300},
		{Op: opStats, Session: "s", Seq: ^uint64(0)},
		{Op: opBest, Session: "s", Seq: 1 << 40},
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
		{OK: true, Seq: 3, Point: []float64{1, 2.5, -3}, Converged: true},
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
		{OK: true, Seq: 8, Code: "invalid_value", Error: "invalid value -1", Rejected: 1},
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
// unknown and retired opcodes, non-minimal uvarints, out-of-range bools,
// undeclared flag bits, truncation, and trailing garbage are all malformed.
func TestBinaryDecodeRejects(t *testing.T) {
	valid, err := appendRequest(nil, &request{Op: opBest, Session: "s", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":              {},
		"unknown op":         append([]byte{0xee}, valid[1:]...),
		"retired fetch op":   append([]byte{2}, valid[1:]...),
		"retired report op":  append([]byte{3}, valid[1:]...),
		"retired resume op":  append([]byte{6}, valid[1:]...),
		"truncated":          valid[:len(valid)-1],
		"trailing byte":      append(append([]byte{}, valid...), 0),
		"non-minimal seq":    append(append([]byte{valid[0]}, 0x81, 0x00), valid[2:]...),
		"string overruns":    {valid[0], 1, 0xff, 0x7f},
		"huge param count":   append(append([]byte{}, valid[:len(valid)-2]...), 0xff, 0x7f),
		"count eats payload": {valid[0], 1, 0, 0, 0xf0, 0x21},
	}
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
	req := request{Op: opReportN, Session: "tuning-session",
		Reports: []ReportItem{{Tag: 42, Value: 1.25}}, Seq: 1000}
	resp := response{OK: true, Seq: 1000, Point: []float64{1, 2, 3}, Value: 1.25}
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
	req := request{Op: opReportN, Session: "tuning-session", Reports: items}
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
// in the codec's reused buffer, so a best response costs only its decoded
// point — the one allocation decodeResponse's copy-out makes.
func TestClientRecvAllocs(t *testing.T) {
	var pbuf []byte
	pbuf = appendResponse(pbuf, &response{OK: true, Seq: 3, Point: []float64{24, 8, 0.125}, Value: 0.75})
	stream := bytes.Repeat(frame.Append(nil, pbuf), 128) // alloccheck runs the body 101 times
	c := &binClientCodec{br: bufio.NewReader(bytes.NewReader(stream))}
	var resp response
	if err := c.recv(&resp); err != nil { // warm the read buffer
		t.Fatal(err)
	}
	alloccheck.Guard(t, "harmony.binClientCodec.recv/best", 1, func() {
		resp = response{}
		if err := c.recv(&resp); err != nil {
			t.Fatal(err)
		}
	})
	if resp.Value != 0.75 || len(resp.Point) != 3 {
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
		"register": 1, "best": 4, "stats": 5, "fetchn": 7, "reportn": 8,
	}
	// Retired: 2 (fetch) and 3 (report), served by fetchn and reportn, and
	// 6 (a resume handshake). Their values are never reused.
	for _, code := range []byte{2, 3, 6} {
		if name, ok := opName(code); ok {
			t.Errorf("opName(%d) = %q; the retired opcode is never reused", code, name)
		}
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
// and an unknown session's fetchn carries its wireErrors code.
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
			Op: op, Session: "s", Params: gs2Params(), N: 1,
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
	resp := dispatch(srv, &request{Op: opFetchN, Session: "ghost", N: 1}, nil)
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

// fetchFromFake runs one Client.Fetch against a fake server that answers
// the fetchn frame with reply, its Seq set to the request's.
func fetchFromFake(t *testing.T, reply response) (FetchResult, error) {
	t.Helper()
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
		reply.Seq = req.Seq
		if _, err := sc.Write(frame.Append(nil, appendResponse(nil, &reply))); err != nil {
			t.Errorf("writing the reply: %v", err)
		}
	}()
	c, err := DialWith("", DialOptions{Retries: 1, Seed: 1, DialFunc: func() (net.Conn, error) { return cc, nil }})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := c.Fetch("s")
	_ = c.Close()
	<-done
	return fr, err
}

// TestFetchOfEmptyBatchIsAnError answers a Client.Fetch with an OK fetchn
// reply that grants nothing, which no server sends: the client returns an
// error instead of indexing the empty batch.
func TestFetchOfEmptyBatchIsAnError(t *testing.T) {
	if fr, err := fetchFromFake(t, response{OK: true}); err == nil {
		t.Errorf("Fetch of an empty batch = %+v, want an error", fr)
	}
}

// TestUnknownCodeIsPlainPermanentError answers a client's request with a
// failure frame whose code is outside wireErrors, as a newer server might:
// the client surfaces it as a permanent error that matches no sentinel.
func TestUnknownCodeIsPlainPermanentError(t *testing.T) {
	_, err := fetchFromFake(t, response{Code: "session_evicted", Error: "harmony: session evicted"})
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
			Op: opReportN, Seq: 7, Session: "session-" + x, N: 2,
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
			Point: []float64{v, 2 * v}, Value: v,
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

// TestSingleSampleCallsSameInProcessAndOverWire runs one script of Fetch
// and Report calls on a Server directly and, on a twin server, through a
// PHWIRE1 Client, whose single-sample calls ride fetchn and reportn: every
// step must answer the same FetchResult and the same error, text and class
// alike, and every wire error must be permanent.
func TestSingleSampleCallsSameInProcessAndOverWire(t *testing.T) {
	type caller struct {
		fetch  func(session string) (FetchResult, error)
		report func(session string, tag uint64, value float64) error
	}
	// Each step is one call; the fetched tag of the outstanding batch is
	// threaded through as live.
	steps := []struct {
		name  string
		fetch bool
		sess  string
		tag   func(live uint64) uint64
		value float64
	}{
		{name: "fetch", fetch: true, sess: "s"},
		{name: "tag 0", sess: "s", tag: func(uint64) uint64 { return 0 }, value: 1},
		{name: "NaN", sess: "s", tag: func(live uint64) uint64 { return live }, value: math.NaN()},
		{name: "negative", sess: "s", tag: func(live uint64) uint64 { return live }, value: -1},
		{name: "never issued", sess: "s", tag: func(uint64) uint64 { return 1 << 40 }, value: 1},
		{name: "live slot", sess: "s", tag: func(live uint64) uint64 { return live }, value: 2},
		{name: "unknown session fetch", fetch: true, sess: "ghost"},
		{name: "unknown session report", sess: "ghost", tag: func(uint64) uint64 { return 1 }, value: 1},
		// Filling "one"'s only batch converges it; a report of a retired
		// batch's tag is then accepted, and the session's fetch is answered
		// with its best, locally on the wire path.
		{name: "one fill 1", sess: "one", tag: func(uint64) uint64 { return 1 }, value: 1},
		{name: "one fill 2", sess: "one", tag: func(uint64) uint64 { return 2 }, value: 1},
		{name: "one fill 3", sess: "one", tag: func(uint64) uint64 { return 3 }, value: 1},
		{name: "one fill 4", sess: "one", tag: func(uint64) uint64 { return 4 }, value: 1},
		{name: "one fill 5", sess: "one", tag: func(uint64) uint64 { return 5 }, value: 1},
		{name: "one fill 6", sess: "one", tag: func(uint64) uint64 { return 6 }, value: 1},
		{name: "retired batch tag", sess: "one", tag: func(uint64) uint64 { return 2 }, value: 3},
		{name: "converged fetch", fetch: true, sess: "one"},
	}
	type answer struct {
		fr  FetchResult
		err error
	}
	run := func(c caller) []answer {
		var live uint64
		out := make([]answer, len(steps))
		for i, st := range steps {
			if st.fetch {
				fr, err := c.fetch(st.sess)
				if st.sess == "s" {
					live = fr.Tag
				}
				out[i] = answer{fr, err}
				continue
			}
			out[i].err = c.report(st.sess, st.tag(live), st.value)
		}
		return out
	}
	newServer := func() *Server {
		srv := NewServer(ServerOptions{})
		t.Cleanup(srv.Close)
		for name, params := range map[string][]space.Parameter{"s": gs2Params(), "one": onePoint} {
			if err := srv.Register(name, params); err != nil {
				t.Fatal(err)
			}
		}
		return srv
	}
	local := newServer()
	cl, _ := dialTest(t, newServer())
	want := run(caller{local.Fetch, local.Report})
	got := run(caller{cl.Fetch, cl.Report})
	for i, st := range steps {
		w, g := want[i], got[i]
		if !reflect.DeepEqual(g.fr, w.fr) {
			t.Errorf("%s: wire answered %+v, in-process %+v", st.name, g.fr, w.fr)
		}
		if (g.err == nil) != (w.err == nil) || (w.err != nil && g.err.Error() != w.err.Error()) {
			t.Errorf("%s: wire err = %v, in-process err = %v", st.name, g.err, w.err)
			continue
		}
		if errors.Is(g.err, ErrInvalidValue) != errors.Is(w.err, ErrInvalidValue) ||
			errors.Is(g.err, ErrUnknownSession) != errors.Is(w.err, ErrUnknownSession) {
			t.Errorf("%s: wire err %v and in-process err %v differ in class", st.name, g.err, w.err)
		}
		if IsPermanent(g.err) != (g.err != nil) {
			t.Errorf("%s: wire err %v: IsPermanent = %v", st.name, g.err, IsPermanent(g.err))
		}
	}
	// The script reaches every case it names.
	if want[0].fr.Tag == 0 || want[2].err == nil || !errors.Is(want[3].err, ErrInvalidValue) ||
		want[4].err == nil || errors.Is(want[4].err, ErrInvalidValue) || want[14].err != nil ||
		!want[15].fr.Converged || want[15].fr.Tag != 0 || !errors.Is(want[6].err, ErrUnknownSession) {
		t.Errorf("the in-process script did not reach its cases: %+v", want)
	}
}
