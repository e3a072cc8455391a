package feddb

import (
	"bytes"
	"testing"

	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// mustEncode builds a seed corpus payload from a structured message.
func mustEncode(f *testing.F, m *syncMsg) []byte {
	b, err := appendSyncMsg(nil, m)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzSyncFrameDecode pins the PHSYNC1 codec's canonicality: the decoder
// must never panic on arbitrary payload bytes, and any payload it accepts
// must re-encode to exactly the same bytes (minimal uvarints, no trailing
// garbage). That identity is what makes frames relayable and replayable
// byte-for-byte through the chaos proxy. Payloads of the retired opcodes 7
// and 8 seed the corpus; TestSyncCodecTablesFrozen asserts they are
// rejected.
func FuzzSyncFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x01, 0x02})
	f.Add(mustEncode(f, &syncMsg{Op: opHello, Seed: -3, Space: "space{a:integer[0,4]}", Origins: []measuredb.OriginDigest{{Origin: "a", High: 9, Hash: 0xdeadbeef}}}))
	f.Add(mustEncode(f, &syncMsg{Op: opDigest, Seed: 42, Origins: []measuredb.OriginDigest{{Origin: "n2a", High: 1, Hash: 7}, {Origin: "z", High: 1 << 40, Hash: 1}}}))
	f.Add(mustEncode(f, &syncMsg{Op: opPull, Origin: "a", From: 10, Max: 512}))
	f.Add(mustEncode(f, &syncMsg{Op: opFrames, Origin: "a", High: 3, Hash: 9, Frames: []measuredb.Frame{{Origin: "a", Seq: 3, Point: space.Point{1.5, -2}, Value: 0.25}}}))
	f.Add(mustEncode(f, &syncMsg{Op: opPush, Origin: "b", Frames: []measuredb.Frame{{Origin: "b", Seq: 1, Point: space.Point{0}, Value: 0}}}))
	f.Add(mustEncode(f, &syncMsg{Op: opAck, Applied: 5, Dups: 2}))
	f.Add(retiredSnapPull)
	f.Add(retiredSnapChunk)
	f.Add(mustEncode(f, &syncMsg{Op: opError, Detail: "space signature mismatch"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m syncMsg
		if err := decodeSyncMsg(data, &m); err != nil {
			return
		}
		re, err := appendSyncMsg(nil, &m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode is not the identity:\n got %x\nwant %x", re, data)
		}
	})
}
