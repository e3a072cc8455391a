package feddb

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"

	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// goldenPHSYNC1 holds the committed PHSYNC1 byte vectors, one whole frame
// per sync op, as "name hex" lines.
const goldenPHSYNC1 = "testdata/phsync1.golden"

type goldenMsg struct {
	name string
	msg  syncMsg
}

func goldenSyncMsgs() []goldenMsg {
	origins := []measuredb.OriginDigest{
		{Origin: "n1", High: 3, Hash: 0x0123456789abcdef},
		{Origin: "n2", High: 1 << 20, Hash: 0xfedcba9876543210},
	}
	frames := []measuredb.Frame{
		{Origin: "n1", Seq: 2, Point: space.Point{24, 8, 0.125}, Value: 0.8125},
		{Origin: "n1", Seq: 3, Point: space.Point{40, 4, 0.25}, Value: 1.5e-3},
	}
	return []goldenMsg{
		{"hello", syncMsg{Op: opHello, Seed: -7, Space: "space{x:integer[0,8]}", Origins: origins}},
		{"digest", syncMsg{Op: opDigest, Seed: 42, Space: "space{x:integer[0,8]}", Origins: origins[1:]}},
		{"pull", syncMsg{Op: opPull, Origin: "n1", From: 2, Max: 512}},
		{"frames", syncMsg{Op: opFrames, Origin: "n1", Frames: frames, High: 3, Hash: 0x0123456789abcdef}},
		{"push", syncMsg{Op: opPush, Origin: "n1", Frames: frames[:1]}},
		{"ack", syncMsg{Op: opAck, Applied: 1, Dups: 300}},
		{"error", syncMsg{Op: opError, Detail: "space signature mismatch"}},
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

// TestSyncGoldenBytes pins PHSYNC1 against committed byte vectors: each
// message frames to exactly its vector, and each vector reads back to the
// message.
func TestSyncGoldenBytes(t *testing.T) {
	golden := readGolden(t, goldenPHSYNC1)
	msgs := goldenSyncMsgs()
	if len(msgs) != len(golden) {
		t.Errorf("%s holds %d vectors, the test checks %d", goldenPHSYNC1, len(golden), len(msgs))
	}
	var bufs syncBufs
	for _, g := range msgs {
		want, ok := golden[g.name]
		if !ok {
			t.Fatalf("%s: no golden vector", g.name)
		}
		var w bytes.Buffer
		if err := writeSyncMsg(&w, &bufs, &g.msg); err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", g.name, w.Bytes(), want)
		}
		var got syncMsg
		if err := readSyncMsg(bufio.NewReader(bytes.NewReader(want)), &bufs, &got); err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		if !reflect.DeepEqual(got, g.msg) {
			t.Errorf("%s: decode mismatch:\n got %+v\nwant %+v", g.name, got, g.msg)
		}
	}
}
