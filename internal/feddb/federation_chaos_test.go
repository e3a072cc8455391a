package feddb_test

import (
	"bufio"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"paratune/internal/chaos"
	"paratune/internal/feddb"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// cutConn fails every read after limit bytes — the client's view of a peer
// that died mid-transfer.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > c.left {
		p = p[:c.left]
	}
	n, err := c.Conn.Read(p)
	c.left -= n
	return n, err
}

func digestHigh(s *measuredb.Store, origin string) uint64 { return s.High(origin) }

// TestKillMidSyncResumesFromDigest drives a full kill/restart cycle through
// the chaos supervisor: a sync round dies partway through segment shipping,
// the server is killed and restarted from its WAL, and the next round pulls
// only the remainder — the digest exchange, not any session state, carries
// the resume point.
func TestKillMidSyncResumesFromDigest(t *testing.T) {
	const total = 200
	dir := t.TempDir()
	// Seed the server's durable store before the supervisor owns it.
	seedStore, err := measuredb.Open(dir, measuredb.Options{Seed: 5, Origin: "srv"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		seedStore.Observe(space.Point{float64(i)}, float64(i))
	}
	if err := seedStore.Close(); err != nil {
		t.Fatal(err)
	}

	sup, err := chaos.NewSupervisor(chaos.SupervisorConfig{
		NewServer: func() (*harmony.Server, func(), error) {
			db, err := measuredb.Open(dir, measuredb.Options{Seed: 5, Origin: "srv"})
			if err != nil {
				return nil, nil, err
			}
			srv := harmony.NewServer(harmony.ServerOptions{DB: db})
			return srv, func() { _ = db.Close() }, nil
		},
		ConnOptions: harmony.ConnOptions{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	client := measuredb.NewMemory(measuredb.Options{Seed: 5, Origin: "cli"})
	opts := feddb.Options{
		MaxBatch:    16, // small batches, so the cut lands between pulls
		ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second,
	}

	// Round 1: the link is cut after a few batches.
	conn, err := sup.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := feddb.Sync(&cutConn{Conn: conn, left: 2500}, client, "sup", opts); err == nil {
		t.Fatal("sync over the cut link unexpectedly succeeded")
	}
	_ = conn.Close()
	partial := digestHigh(client, "srv")
	if partial == 0 || partial >= total {
		t.Fatalf("client holds %d of %d frames after the cut; want a strict partial", partial, total)
	}

	// The server dies abruptly and comes back from its WAL.
	sup.Kill()
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}

	// Round 2 ships exactly the remainder: nothing the first round already
	// applied crosses the wire again.
	conn, err = sup.Dial()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := feddb.Sync(conn, client, "sup", opts)
	_ = conn.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(stats.Pulled); got != total-partial {
		t.Fatalf("resumed round pulled %d frames, want the %d-frame remainder", got, total-partial)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("resumed round re-shipped %d duplicate frames", stats.Duplicates)
	}
	if digestHigh(client, "srv") != total {
		t.Fatalf("client high = %d, want %d", digestHigh(client, "srv"), total)
	}
}

// TestSyncThroughChaosProxy relays PHSYNC1 through the fault proxy: a
// transparent schedule must converge in one round, and a lossy schedule must
// only ever delay convergence (failed rounds retried on fresh connections),
// never corrupt it.
func TestSyncThroughChaosProxy(t *testing.T) {
	server := measuredb.NewMemory(measuredb.Options{Seed: 9, Origin: "srv"})
	for i := 0; i < 40; i++ {
		server.Observe(space.Point{float64(i)}, float64(i)*1.5)
	}

	var wg sync.WaitGroup
	backend := func() (net.Conn, error) {
		cc, sc := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sc.Close()
			br := bufio.NewReader(sc)
			var magic [len(feddb.SyncMagic)]byte
			if _, err := io.ReadFull(br, magic[:]); err != nil {
				return
			}
			// the relay test tears links down on purpose
			_ = feddb.ServeConn(sc, br, feddb.ServeOptions{Store: server, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
		}()
		return cc, nil
	}

	for _, tc := range []struct {
		name string
		cfg  chaos.Config
	}{
		{"transparent", chaos.Config{Seed: 3}},
		{"lossy", chaos.Config{Seed: 3, PDrop: 0.2, PDup: 0.05, Links: 8, Frames: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy, err := chaos.New(tc.cfg, backend, nil)
			if err != nil {
				t.Fatal(err)
			}
			front := chaos.NewMemListener()
			serveDone := make(chan struct{})
			go func() {
				defer close(serveDone)
				// Serve returns once the test closes the listener
				_ = proxy.Serve(front)
			}()

			client := measuredb.NewMemory(measuredb.Options{Seed: 9, Origin: "cli-" + tc.name})
			opts := feddb.Options{ReadTimeout: 300 * time.Millisecond, WriteTimeout: 300 * time.Millisecond}
			converged := false
			for attempt := 0; attempt < 20 && !converged; attempt++ {
				conn, err := front.Dial()
				if err != nil {
					t.Fatal(err)
				}
				_, serr := feddb.Sync(conn, client, "proxy", opts)
				_ = conn.Close()
				if serr != nil {
					continue // a faulted round; anti-entropy just retries
				}
				converged = clientCaughtUp(client, server)
			}
			front.Close()
			proxy.Close()
			<-serveDone
			if !converged {
				t.Fatal("client never converged through the proxy")
			}
			if digestHigh(client, "srv") != 40 {
				t.Fatalf("client high = %d, want 40", digestHigh(client, "srv"))
			}
		})
	}
	wg.Wait()
}

func clientCaughtUp(client, server *measuredb.Store) bool {
	cd, cok := digestOf(client, "srv")
	sd, sok := digestOf(server, "srv")
	return cok && sok && cd == sd
}

func digestOf(s *measuredb.Store, origin string) (measuredb.OriginDigest, bool) {
	for _, d := range s.Digest() {
		if d.Origin == origin {
			return d, true
		}
	}
	return measuredb.OriginDigest{}, false
}
