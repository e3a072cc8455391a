package feddb

import (
	"io"
	"testing"

	"paratune/internal/alloccheck"
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
