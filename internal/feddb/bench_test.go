package feddb

import (
	"bufio"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// benchStore builds a store holding frames from several origins, the shape
// a federated hub settles into.
func benchStore(origins, perOrigin int) *measuredb.Store {
	st := measuredb.NewMemory(measuredb.Options{Seed: 7, Origin: "o0"})
	for o := 0; o < origins; o++ {
		origin := "o" + string(rune('0'+o))
		for i := 0; i < perOrigin; i++ {
			p := space.Point{float64(i % 64), float64(o)}
			if o == 0 {
				st.Observe(p, float64(i))
				continue
			}
			if _, err := st.Apply(measuredb.Frame{Origin: origin, Seq: uint64(i + 1), Point: p, Value: float64(i)}); err != nil {
				panic(err)
			}
		}
	}
	return st
}

// BenchmarkSyncDigest is the per-round fixed cost: summarising every origin
// history into the (high, chain-hash) digest peers exchange first.
func BenchmarkSyncDigest(b *testing.B) {
	st := benchStore(8, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := st.Digest(); len(d) != 8 {
			b.Fatalf("digest covers %d origins", len(d))
		}
	}
}

// BenchmarkSegmentShip is the marginal cost of shipping one 512-frame
// segment: gather from the store, encode the frames message, decode it back.
func BenchmarkSegmentShip(b *testing.B) {
	st := benchStore(2, 512)
	var frames []measuredb.Frame
	var buf []byte
	var msg syncMsg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, _, _ = st.AppendFrames(frames[:0], "o1", 1, 512)
		m := syncMsg{Op: opFrames, Origin: "o1", Frames: frames, High: 512, Hash: 1}
		var err error
		buf, err = appendSyncMsg(buf[:0], &m)
		if err != nil {
			b.Fatal(err)
		}
		if err := decodeSyncMsg(buf, &msg); err != nil {
			b.Fatal(err)
		}
		if len(msg.Frames) != 512 {
			b.Fatalf("round-tripped %d frames", len(msg.Frames))
		}
	}
}

// BenchmarkColdSync is one cold peer's whole catch-up over loopback TCP: a
// new memory store runs one round against a 4-origin × 12,000-frame peer and
// pulls every frame as WAL segments.
func BenchmarkColdSync(b *testing.B) {
	const origins, perOrigin = 4, 12000
	server := benchStore(origins, perOrigin)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				var magic [len(SyncMagic)]byte
				if _, err := io.ReadFull(br, magic[:]); err != nil {
					return
				}
				// the serve loop always ends with the client's close
				_ = ServeConn(conn, br, ServeOptions{Store: server})
			}()
		}
	}()
	defer wg.Wait()
	defer ln.Close()

	catchUp := func() (*measuredb.Store, Stats) {
		client := measuredb.NewMemory(measuredb.Options{Seed: 7, Origin: "cold"})
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		stats, err := Sync(conn, client, "bench", Options{})
		if err != nil {
			b.Fatal(err)
		}
		return client, stats
	}

	client, stats := catchUp()
	if stats.Pulled != origins*perOrigin {
		b.Fatalf("cold round pulled %d frames, want %d", stats.Pulled, origins*perOrigin)
	}
	if !reflect.DeepEqual(client.Digest(), server.Digest()) || !reflect.DeepEqual(framesOf(client), framesOf(server)) {
		b.Fatal("cold peer did not converge on the server's frames")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		catchUp()
	}
}
