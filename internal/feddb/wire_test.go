package feddb

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/frame"
	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// TestWriteSyncMsgAllocs pins the write path's scratch reuse: once the
// payload and frame buffers have grown, framing and writing a message
// allocates nothing.
func TestWriteSyncMsgAllocs(t *testing.T) {
	m := syncMsg{Op: opPush, Origin: "n1", Frames: []measuredb.Frame{
		{Origin: "n1", Seq: 1, Point: space.Point{24, 8, 0.125}, Value: 0.8125},
		{Origin: "n1", Seq: 2, Point: space.Point{40, 4, 0.25}, Value: 1.5},
	}}
	var bufs syncBufs
	if err := writeSyncMsg(io.Discard, &bufs, &m); err != nil {
		t.Fatal(err)
	}
	alloccheck.Guard(t, "feddb.writeSyncMsg/push", 0, func() {
		if err := writeSyncMsg(io.Discard, &bufs, &m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSyncMsgOutlivesNextFrame decodes message A, keeps it, and reads a
// same-length message B with different bytes through the same scratch. A's
// strings, origins and points must still hold A's bytes, for every message
// shape that carries them.
func TestSyncMsgOutlivesNextFrame(t *testing.T) {
	shapes := []func(x string, v float64) syncMsg{
		func(x string, v float64) syncMsg {
			return syncMsg{Op: opDigest, Seed: 3, Space: "space-" + x, Origins: []measuredb.OriginDigest{
				{Origin: "origin-" + x, High: 4, Hash: 5},
			}}
		},
		func(x string, v float64) syncMsg {
			return syncMsg{Op: opFrames, Origin: "origin-" + x, High: 2, Hash: 6, Frames: []measuredb.Frame{
				{Origin: "frame-" + x, Seq: 1, Point: space.Point{v, 2 * v}, Value: v},
			}}
		},
		func(x string, v float64) syncMsg {
			return syncMsg{Op: opError, Detail: "detail-" + x}
		},
	}
	for _, shape := range shapes {
		a, b := shape("A", 1.5), shape("B", 2.5)
		t.Run(a.Op.String(), func(t *testing.T) {
			var stream bytes.Buffer
			var bufs syncBufs
			if err := writeSyncMsg(&stream, &bufs, &a); err != nil {
				t.Fatal(err)
			}
			n := stream.Len()
			if err := writeSyncMsg(&stream, &bufs, &b); err != nil {
				t.Fatal(err)
			}
			if raw := stream.Bytes(); len(raw) != 2*n || bytes.Equal(raw[:n], raw[n:]) {
				t.Fatalf("frames must differ at equal length: %d vs %d bytes", n, len(raw)-n)
			}
			br := bufio.NewReader(&stream)
			var read syncBufs
			var gotA, gotB syncMsg
			if err := readSyncMsg(br, &read, &gotA); err != nil {
				t.Fatal(err)
			}
			if err := readSyncMsg(br, &read, &gotB); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotB, b) {
				t.Fatalf("frame B decoded as %+v, want %+v", gotB, b)
			}
			if !reflect.DeepEqual(gotA, a) {
				t.Errorf("message A changed when frame B was read:\n got %+v\nwant %+v", gotA, a)
			}
		})
	}
}

// TestDecodeFramesAllocs pins the decode side of a segment: 512 frames of
// one origin decode into the origin string, the frame slice and one point
// slab, not a point and a string per frame. Points of mixed dimension
// round-trip too, each capped so that growing one leaves the next intact.
func TestDecodeFramesAllocs(t *testing.T) {
	m := syncMsg{Op: opFrames, Origin: "o1", High: 512, Hash: 1}
	for i := 0; i < 512; i++ {
		m.Frames = append(m.Frames, measuredb.Frame{Origin: "o1", Seq: uint64(i + 1), Point: space.Point{float64(i % 64), 1}, Value: float64(i)})
	}
	payload, err := appendSyncMsg(nil, &m)
	if err != nil {
		t.Fatal(err)
	}
	var got syncMsg
	alloccheck.Guard(t, "feddb.decodeSyncMsg/frames×512", 3, func() {
		if err := decodeSyncMsg(payload, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, m) {
		t.Fatal("512-frame segment did not round-trip")
	}

	mixed := syncMsg{Op: opPush, Origin: "a", Frames: []measuredb.Frame{
		{Origin: "a", Seq: 1, Point: space.Point{1}, Value: 1},
		{Origin: "b", Seq: 2, Point: space.Point{2, 3, 4}, Value: 2},
		{Origin: "b", Seq: 3, Point: space.Point{5, 6}, Value: 3},
		{Origin: "a", Seq: 4, Point: space.Point{7, 8, 9, 10}, Value: 4},
	}}
	if payload, err = appendSyncMsg(nil, &mixed); err != nil {
		t.Fatal(err)
	}
	if err := decodeSyncMsg(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, mixed) {
		t.Fatalf("mixed dimensions decoded as %+v, want %+v", got, mixed)
	}
	for i := range got.Frames[:len(got.Frames)-1] {
		got.Frames[i].Point = append(got.Frames[i].Point, -1)
	}
	for i := range got.Frames[1:] {
		if want := mixed.Frames[i+1].Point; !reflect.DeepEqual(got.Frames[i+1].Point[:len(want)], want) {
			t.Fatalf("growing point %d changed point %d to %v", i, i+1, got.Frames[i+1].Point)
		}
	}
}

// TestDecodeRejectsOriginsOverCap pins the decoder's bound on a digest's
// origin list: maxSyncOrigins origins decode, one more is malformed.
func TestDecodeRejectsOriginsOverCap(t *testing.T) {
	for _, n := range []int{maxSyncOrigins, maxSyncOrigins + 1} {
		m := syncMsg{Op: opDigest, Origins: make([]measuredb.OriginDigest, n)}
		for i := range m.Origins {
			m.Origins[i] = measuredb.OriginDigest{Origin: "o", High: 1}
		}
		payload, err := appendSyncMsg(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		var got syncMsg
		err = decodeSyncMsg(payload, &got)
		if n <= maxSyncOrigins && err != nil {
			t.Errorf("digest of %d origins rejected: %v", n, err)
		}
		if n > maxSyncOrigins && !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("digest of %d origins: err = %v, want frame.ErrMalformed", n, err)
		}
	}
}

// opCode maps an op name to its wire opcode, the inverse of opName. Peers
// carry ops as syncOp codes, so only the tests look ops up by name.
func opCode(name string) (byte, bool) {
	for code := range syncOps {
		if name != "" && syncOps[code] == name {
			return byte(code), true
		}
	}
	return 0, false
}

// Payloads of the retired snapshot transfer ops as the last codec that knew
// them encoded them: opcode 7 (snappull), and 8 (snapchunk) carrying ten
// opaque bytes of chunk data.
var (
	retiredSnapPull  = []byte{7, 0x80, 0x80, 0x04, 0, 0, 0, 0, 0, 0, 0x0a, 0xbc}
	retiredSnapChunk = []byte{8, 0x80, 0x80, 0x40, 0, 0, 0, 0, 0, 0, 0x0a, 0xbc, 9, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5}
)

// TestSyncCodecTablesFrozen pins the PHSYNC1 opcode table: opCode and opName
// are exact inverses, every op keeps its frozen value, the retired snapshot
// opcodes 7 and 8 decode as unknown ops, and every byte outside the table is
// rejected both ways.
func TestSyncCodecTablesFrozen(t *testing.T) {
	frozen := map[string]byte{
		"hello": 1, "digest": 2, "pull": 3, "frames": 4, "push": 5, "ack": 6, "error": 9,
	}
	for name, code := range frozen {
		if got, ok := opCode(name); !ok || got != code {
			t.Errorf("opCode(%q) = %d, %v; want %d, true — the frozen wire order moved", name, got, ok, code)
		}
	}
	for _, name := range []string{"snappull", "snapchunk"} {
		if code, ok := opCode(name); ok {
			t.Errorf("opCode(%q) = %d, true; the retired op must not encode", name, code)
		}
	}
	names := make(map[byte]string, len(frozen))
	for name, code := range frozen {
		names[code] = name
	}
	for b := 0; b <= 0xFF; b++ {
		code := byte(b)
		name, ok := opName(code)
		if want, known := names[code]; known {
			if !ok || name != want {
				t.Errorf("opName(%d) = %q, %v; want %q, true", code, name, ok, want)
			} else if back, ok := opCode(name); !ok || back != code {
				t.Errorf("opCode(opName(%d)) = %d, %v; not an inverse", code, back, ok)
			}
		} else if ok {
			t.Errorf("opName(%d) = %q, true; want rejection of an unassigned opcode", code, name)
		}
	}
	for _, payload := range [][]byte{retiredSnapPull, retiredSnapChunk} {
		var m syncMsg
		if err := decodeSyncMsg(payload, &m); !errors.Is(err, frame.ErrMalformed) {
			t.Errorf("retired opcode %d: err = %v, want frame.ErrMalformed", payload[0], err)
		}
	}
}

// TestServeCoversSyncOps sends every op of syncOps to ServeConn on a fresh
// connection: a request op must reach its handler and draw its reply op,
// and a response op must draw the "unexpected op" error. An op the table
// names but Serve's switch lacks draws "unknown op" and fails here.
func TestServeCoversSyncOps(t *testing.T) {
	replies := map[syncOp]syncOp{opHello: opDigest, opPull: opFrames, opPush: opAck}
	store := measuredb.NewMemory(measuredb.Options{Seed: 42, Origin: "srv"})
	for code, name := range syncOps {
		if name == "" {
			continue
		}
		op := syncOp(code)
		cc, sc := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer sc.Close()
			_ = ServeConn(sc, bufio.NewReader(sc), ServeOptions{Store: store})
		}()
		var bufs syncBufs
		var reply syncMsg
		err := writeSyncMsg(cc, &bufs, &syncMsg{Op: op})
		if err == nil {
			err = readSyncMsg(bufio.NewReader(cc), &bufs, &reply)
		}
		_ = cc.Close()
		<-done
		if err != nil {
			t.Errorf("op %s: %v", op, err)
			continue
		}
		if want, ok := replies[op]; ok {
			if reply.Op != want {
				t.Errorf("request op %s drew %s (%s), want %s", op, reply.Op, reply.Detail, want)
			}
		} else if reply.Op != opError || reply.Detail != "unexpected op "+name {
			t.Errorf("response op %s drew %s %q, want the unexpected-op error", op, reply.Op, reply.Detail)
		}
	}
}
