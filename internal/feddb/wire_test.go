package feddb

import (
	"bufio"
	"bytes"
	"errors"
	"io"
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
	m := syncMsg{Op: "push", Origin: "n1", Frames: []measuredb.Frame{
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
// strings, origins, points and snapshot Data must still hold A's bytes, for
// every message shape that carries them.
func TestSyncMsgOutlivesNextFrame(t *testing.T) {
	shapes := []func(x string, v float64) syncMsg{
		func(x string, v float64) syncMsg {
			return syncMsg{Op: "digest", Seed: 3, Space: "space-" + x, Origins: []measuredb.OriginDigest{
				{Origin: "origin-" + x, High: 4, Hash: 5},
			}}
		},
		func(x string, v float64) syncMsg {
			return syncMsg{Op: "frames", Origin: "origin-" + x, High: 2, Hash: 6, Frames: []measuredb.Frame{
				{Origin: "frame-" + x, Seq: 1, Point: space.Point{v, 2 * v}, Value: v},
			}}
		},
		func(x string, v float64) syncMsg {
			return syncMsg{Op: "snapchunk", Size: 9, Hash: 7, Data: []byte("data-" + x)}
		},
		func(x string, v float64) syncMsg {
			return syncMsg{Op: "error", Detail: "detail-" + x}
		},
	}
	for _, shape := range shapes {
		a, b := shape("A", 1.5), shape("B", 2.5)
		t.Run(a.Op, func(t *testing.T) {
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

// TestDecodeRejectsOriginsOverCap pins the decoder's bound on a digest's
// origin list: maxSyncOrigins origins decode, one more is malformed.
func TestDecodeRejectsOriginsOverCap(t *testing.T) {
	for _, n := range []int{maxSyncOrigins, maxSyncOrigins + 1} {
		m := syncMsg{Op: "digest", Origins: make([]measuredb.OriginDigest, n)}
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
