package harmony

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"paratune/internal/space"
)

// goldenPHWIRE1 holds the committed PHWIRE1 byte vectors: one request frame
// and one response frame per op, as "name hex" lines.
const goldenPHWIRE1 = "testdata/phwire1.golden"

type goldenReq struct {
	name string
	req  request
}

type goldenResp struct {
	name string
	resp response
}

// goldenRequests is one request per op, batches included.
func goldenRequests() []goldenReq {
	return []goldenReq{
		{"req/register", request{Op: opRegister, Seq: 1, Session: "gs2", Params: []space.Parameter{
			{Name: "ntheta", Kind: space.Integer, Lower: 8, Upper: 64},
			{Name: "negrid", Kind: space.Discrete, Values: []float64{4, 8, 16}},
			{Name: "delt", Kind: space.Continuous, Lower: 0.005, Upper: 0.5},
		}}},
		{"req/best", request{Op: opBest, Seq: 4, Session: "gs2"}},
		{"req/stats", request{Op: opStats, Seq: 5, Session: "gs2"}},
		{"req/fetchn", request{Op: opFetchN, Seq: 7, Session: "gs2", N: 16}},
		{"req/reportn", request{Op: opReportN, Seq: 8, Session: "gs2", Reports: []ReportItem{
			{Tag: 8, Value: 1.5},
			{Tag: 9, Value: 2.25e-3},
			{Tag: 300, Value: 1e9},
		}}},
	}
}

// goldenResponses is one response per op, plus a structured error, a reportn
// reply carrying its rejection's error, and two replies carrying a converged
// session's answer.
func goldenResponses() []goldenResp {
	return []goldenResp{
		{"resp/register", response{OK: true, Seq: 1}},
		{"resp/best-unknown", response{Seq: 4, Code: "unknown_session", Error: "unknown session \"gs2\""}},
		{"resp/best", response{OK: true, Seq: 4, Point: []float64{32, 16, 0.05}, Value: 0.75, Converged: true}},
		{"resp/stats", response{OK: true, Seq: 5, Stats: &SessionStats{
			Name: "gs2", Converged: false, Best: []float64{32, 16, 0.05}, BestValue: 0.75,
			Pending: 3, NextTag: 12,
		}}},
		{"resp/fetchn", response{OK: true, Seq: 7, Batch: []FetchResult{
			{Point: []float64{24, 8, 0.125}, Tag: 10},
			{Point: []float64{40, 4, 0.25}, Tag: 11, Converged: true},
		}}},
		{"resp/reportn", response{OK: true, Seq: 8, Accepted: 2, Refused: 1, Rejected: 0}},
		{"resp/reportn-rejected", response{OK: true, Seq: 8, Code: "invalid_value", Error: "invalid value -1", Accepted: 2, Rejected: 1}},
		// Replies that find their session converged carry its answer.
		{"resp/register-converged", response{OK: true, Seq: 1, Point: []float64{32, 16, 0.05}, Converged: true}},
		{"resp/reportn-converged", response{OK: true, Seq: 8, Point: []float64{32, 16, 0.05}, Converged: true, Accepted: 3}},
	}
}

// readGolden parses a "name hex" vector file.
func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, hx, ok := strings.Cut(line, " ")
		b, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("%s: bad line %q", path, line)
		}
		out[name] = b
	}
	return out
}

// TestWireGoldenBytes pins PHWIRE1 against committed byte vectors: each
// message encodes (through the client and server codecs, envelope included)
// to exactly its vector, and each vector decodes back to the message.
func TestWireGoldenBytes(t *testing.T) {
	golden := readGolden(t, goldenPHWIRE1)
	used := 0
	for _, g := range goldenRequests() {
		want, ok := golden[g.name]
		if !ok {
			t.Fatalf("%s: no golden vector", g.name)
		}
		used++
		var w bytes.Buffer
		if err := (&binClientCodec{w: &w}).send(&g.req); err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", g.name, w.Bytes(), want)
		}
		var got request
		sc := &binServerCodec{br: bufio.NewReader(bytes.NewReader(want))}
		if err := sc.readRequest(&got); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if !reflect.DeepEqual(got, g.req) {
			t.Errorf("%s: decode mismatch:\n got %+v\nwant %+v", g.name, got, g.req)
		}
	}
	for _, g := range goldenResponses() {
		want, ok := golden[g.name]
		if !ok {
			t.Fatalf("%s: no golden vector", g.name)
		}
		used++
		var w bytes.Buffer
		if err := (&binServerCodec{w: &w}).writeResponse(&g.resp); err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", g.name, w.Bytes(), want)
		}
		var got response
		cc := &binClientCodec{br: bufio.NewReader(bytes.NewReader(want))}
		if err := cc.recv(&got); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if !reflect.DeepEqual(got, g.resp) {
			t.Errorf("%s: decode mismatch:\n got %+v\nwant %+v", g.name, got, g.resp)
		}
	}
	if used != len(golden) {
		t.Errorf("%s holds %d vectors, the test checks %d", goldenPHWIRE1, len(golden), used)
	}
}

// preRevisionRequests are the request frames of PHWIRE1's first payload
// layout, envelope included, as its golden file held them: the layout that
// also carried a client id, the single-sample fields and retired slots.
var preRevisionRequests = []struct{ name, hex string }{
	{"register", "771112540d010102633103677332000000000000000000000003066e7468657461014020000000000000405000000000000000066e65677269640200000000000000000000000000000000034010000000000000402000000000000040300000000000000464656c74003f747ae147ae147b3fe00000000000000000"},
	{"best", "16b269003104040263310367733200000000000000000000000000"},
	{"stats", "163a9be76f05050263310367733200000000000000000000000000"},
	{"fetchn", "16ec298ce207070263310367733200000000000000000000100000"},
	{"reportn", "359fd875da08080263310367733200000000000000000000000003083ff800000000000000093f626e978d4fdf3b00ac0241cdcd650000000000"},
}

// TestPreRevisionFramesRefused sends each request of the first PHWIRE1
// payload layout to a live server: a peer built against that layout must
// draw a "bad request" reply and a closed connection, never a misread.
func TestPreRevisionFramesRefused(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("gs2", gs2Params()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveAsync(l, srv)
	for _, v := range preRevisionRequests {
		raw, err := hex.DecodeString(v.hex)
		if err != nil {
			t.Fatal(err)
		}
		rw := newRawWire(t, l.Addr().String())
		if _, err := rw.conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		_ = rw.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, ok := rw.readResp()
		if !ok || resp.OK || !strings.HasPrefix(resp.Error, "bad request: ") {
			t.Errorf("%s: pre-revision frame answered %+v (ok %v), want a bad request", v.name, resp, ok)
			continue
		}
		if _, ok := rw.readResp(); ok {
			t.Errorf("%s: connection stayed open after a bad request", v.name)
		}
	}
}
