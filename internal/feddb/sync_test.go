package feddb

import (
	"bufio"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paratune/internal/event"
	"paratune/internal/frame"
	"paratune/internal/measuredb"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func newPeer(t *testing.T, origin string) *measuredb.Store {
	t.Helper()
	return measuredb.NewMemory(measuredb.Options{Seed: 42, Origin: origin})
}

// syncOnce runs one client round against server over an in-process pipe,
// joining the serve goroutine before returning.
func syncOnce(t *testing.T, client, server *measuredb.Store, opts Options) (Stats, error) {
	t.Helper()
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		br := bufio.NewReader(sc)
		var magic [len(SyncMagic)]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			return
		}
		_ = ServeConn(sc, br, ServeOptions{Store: server}) // always ends with the client's close
	}()
	stats, err := Sync(cc, client, "peer", opts)
	_ = cc.Close()
	<-done
	return stats, err
}

// framesOf flattens a store into its canonical frame list — every origin's
// history in (origin, seq) order — the byte-level convergence witness.
func framesOf(s *measuredb.Store) []measuredb.Frame {
	var out []measuredb.Frame
	for _, d := range s.Digest() {
		out, _, _ = s.AppendFrames(out, d.Origin, 1, 0)
	}
	return out
}

func requireConverged(t *testing.T, stores ...*measuredb.Store) {
	t.Helper()
	want := framesOf(stores[0])
	wantDig := stores[0].Digest()
	for i, s := range stores[1:] {
		if !reflect.DeepEqual(s.Digest(), wantDig) {
			t.Fatalf("store %d digest diverged:\n got %+v\nwant %+v", i+1, s.Digest(), wantDig)
		}
		if !reflect.DeepEqual(framesOf(s), want) {
			t.Fatalf("store %d frames diverged", i+1)
		}
	}
}

func TestPairSyncConvergesBothWays(t *testing.T) {
	a, b := newPeer(t, "a"), newPeer(t, "b")
	p1, p2 := space.Point{1, 2}, space.Point{3, 4}
	for _, v := range []float64{9, 1, 4} {
		a.Observe(p1, v)
	}
	b.Observe(p2, 7)
	b.Observe(p2, 2)

	var mem event.Memory
	stats, err := syncOnce(t, a, b, Options{Recorder: &mem})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pulled != 2 || stats.Pushed != 3 || stats.Duplicates != 0 {
		t.Fatalf("first round stats = %+v", stats)
	}
	requireConverged(t, a, b)
	if mem.Count(event.KindSyncStart) != 1 || mem.Count(event.KindSyncComplete) != 1 {
		t.Fatalf("lifecycle events = %d start, %d complete", mem.Count(event.KindSyncStart), mem.Count(event.KindSyncComplete))
	}
	if n := mem.Count(event.KindSyncSegments); n != 2 {
		t.Fatalf("segment events = %d, want 2 (one pull, one push)", n)
	}

	// A converged pair's next round ships nothing at all.
	var quiet event.Memory
	stats, err = syncOnce(t, a, b, Options{Recorder: &quiet})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (Stats{}) {
		t.Fatalf("converged round stats = %+v, want all zero", stats)
	}
	if n := quiet.Count(event.KindSyncSegments); n != 0 {
		t.Fatalf("converged round still shipped %d segments", n)
	}

	// Raw observations agree bitwise, in order, on both sides.
	for _, p := range []space.Point{p1, p2} {
		av, aok, _ := a.AppendObsSource(nil, p, 0)
		bv, bok, _ := b.AppendObsSource(nil, p, 0)
		if !aok || !bok || !reflect.DeepEqual(av, bv) {
			t.Fatalf("observation mismatch at %v: %v vs %v", p, av, bv)
		}
	}
}

// TestThreePeerAnyOrderConverges is the convergence property test: three
// peers observing disjoint (and overlapping) configurations, synced in a
// seeded random pairing order with observations interleaved, always end up
// with byte-identical frame histories after closing rounds — set union is
// idempotent and order-independent.
func TestThreePeerAnyOrderConverges(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		rng := rand.New(rand.NewSource(seed))
		stores := []*measuredb.Store{newPeer(t, "a"), newPeer(t, "b"), newPeer(t, "c")}
		for round := 0; round < 24; round++ {
			// Some peer measures something (overlapping configurations on
			// purpose: same point, different origins).
			s := stores[rng.Intn(len(stores))]
			p := space.Point{float64(rng.Intn(4)), float64(rng.Intn(4))}
			s.Observe(p, float64(rng.Intn(100)))
			// A random ordered pair syncs.
			i := rng.Intn(len(stores))
			j := rng.Intn(len(stores) - 1)
			if j >= i {
				j++
			}
			if _, err := syncOnce(t, stores[i], stores[j], Options{}); err != nil {
				t.Fatalf("seed %d round %d sync %d->%d: %v", seed, round, i, j, err)
			}
		}
		// Closing rounds: every ordered pair once is enough to flood-fill
		// three peers (each round is bidirectional).
		for i := range stores {
			for j := range stores {
				if i == j {
					continue
				}
				if _, err := syncOnce(t, stores[i], stores[j], Options{}); err != nil {
					t.Fatalf("seed %d closing sync %d->%d: %v", seed, i, j, err)
				}
			}
		}
		requireConverged(t, stores...)
		// And the fixed point is quiet: one more full pass ships zero.
		for i := range stores {
			for j := range stores {
				if i == j {
					continue
				}
				stats, err := syncOnce(t, stores[i], stores[j], Options{})
				if err != nil {
					t.Fatalf("seed %d fixed-point sync %d->%d: %v", seed, i, j, err)
				}
				if stats != (Stats{}) {
					t.Fatalf("seed %d fixed-point sync %d->%d shipped %+v", seed, i, j, stats)
				}
			}
		}
	}
}

// readLimitConn severs the connection (from the client's point of view)
// after limit bytes have been read — a deterministic stand-in for a peer
// dying mid-transfer.
type readLimitConn struct {
	net.Conn
	left int
}

func (c *readLimitConn) Read(p []byte) (int, error) {
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

// TestColdPeerCutMidPullResumesOnSegments cuts a cold client's link part way
// through its pulls. Every batch applied before the cut stays applied, so
// the next round's digest exchange asks for exactly the remainder: no frame
// crosses the wire twice, and the pair converges.
func TestColdPeerCutMidPullResumesOnSegments(t *testing.T) {
	server, client := newPeer(t, "srv"), newPeer(t, "cli")
	const total = 600
	for i := 0; i < total; i++ {
		server.Observe(space.Point{float64(i), float64(i % 7)}, float64(i))
	}
	opts := Options{MaxBatch: 16, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second}

	// Round 1: the link dies 6000 bytes in, part way through the pulls.
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		br := bufio.NewReader(sc)
		var magic [len(SyncMagic)]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			return
		}
		// the cut link is the point of the test
		_ = ServeConn(sc, br, ServeOptions{Store: server})
	}()
	if _, err := Sync(&readLimitConn{Conn: cc, left: 6000}, client, "peer", opts); err == nil {
		t.Fatal("sync over the cut link unexpectedly succeeded")
	}
	_ = cc.Close()
	<-done
	held := client.High("srv")
	if held == 0 || held >= total {
		t.Fatalf("client holds %d of %d frames after the cut; want a strict partial", held, total)
	}

	// Round 2 starts from the digest and pulls the rest, beginning right
	// after the last frame round 1 applied.
	var mem event.Memory
	opts.Recorder = &mem
	stats, err := syncOnce(t, client, server, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pulled != total-int(held) || stats.Duplicates != 0 || stats.Pushed != 0 {
		t.Fatalf("resumed round stats = %+v, want the %d-frame remainder and no duplicates", stats, total-int(held))
	}
	for _, e := range mem.Events() {
		if seg, ok := e.(event.SyncSegments); ok {
			if seg.From != held+1 {
				t.Fatalf("resumed round's first pull starts at seq %d, want %d", seg.From, held+1)
			}
			break
		}
	}
	requireConverged(t, client, server)
}

func TestServeRejectsSpaceMismatch(t *testing.T) {
	server, client := newPeer(t, "srv"), newPeer(t, "cli")
	if err := server.BindSpace("space{a:integer[0,4]}"); err != nil {
		t.Fatal(err)
	}
	if err := client.BindSpace("space{b:integer[0,9]}"); err != nil {
		t.Fatal(err)
	}
	server.Observe(space.Point{1}, 1)
	client.Observe(space.Point{2}, 2)
	if _, err := syncOnce(t, client, server, Options{}); err == nil {
		t.Fatal("sync across different space signatures unexpectedly succeeded")
	}
}

// Peers bound to discrete spaces whose menus share their bounds are bound
// to different spaces, and their sync is refused.
func TestServeRejectsMenuMismatch(t *testing.T) {
	server, client := newPeer(t, "srv"), newPeer(t, "cli")
	if err := server.BindSpace(space.MustNew(space.DiscreteParam("n", 1, 2, 4)).String()); err != nil {
		t.Fatal(err)
	}
	if err := client.BindSpace(space.MustNew(space.DiscreteParam("n", 1, 3, 4)).String()); err != nil {
		t.Fatal(err)
	}
	server.Observe(space.Point{2}, 1)
	client.Observe(space.Point{3}, 2)
	if _, err := syncOnce(t, client, server, Options{}); err == nil {
		t.Fatal("sync across different discrete menus unexpectedly succeeded")
	}
}

func TestSyncAdoptsPeerSpaceBinding(t *testing.T) {
	// An unbound store syncing with a bound peer adopts the binding — the
	// same rule Merge applies — so it refuses foreign-space writes later.
	server, client := newPeer(t, "srv"), newPeer(t, "cli")
	const sig = "space{a:integer[0,4]}"
	if err := server.BindSpace(sig); err != nil {
		t.Fatal(err)
	}
	server.Observe(space.Point{1}, 1)
	if _, err := syncOnce(t, client, server, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := client.SpaceSig(); got != sig {
		t.Fatalf("client space = %q after sync, want %q", got, sig)
	}
}

// The serve side binds on hello as the client side does: an unbound server
// adopts the peer's space before it applies the peer's frames, so those
// observations are never replayed under another space.
func TestServeAdoptsPeerSpaceBinding(t *testing.T) {
	server, client := newPeer(t, "srv"), newPeer(t, "cli")
	const sig = "space{a:integer[0,4]}"
	if err := client.BindSpace(sig); err != nil {
		t.Fatal(err)
	}
	client.Observe(space.Point{1}, 1)
	stats, err := syncOnce(t, client, server, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushed != 1 {
		t.Fatalf("pushed %d frames, want 1", stats.Pushed)
	}
	if got := server.SpaceSig(); got != sig {
		t.Fatalf("server space = %q after sync, want %q", got, sig)
	}
	if err := server.BindSpace("space{b:integer[0,9]}"); err == nil {
		t.Fatal("a server holding the peer's observations bound another space")
	}
}

func TestSyncDetectsDivergedOrigin(t *testing.T) {
	// Two stores that both claim origin "x" with different histories must
	// refuse to sync rather than silently interleave.
	a, b := newPeer(t, "x"), newPeer(t, "x")
	a.Observe(space.Point{1}, 1)
	b.Observe(space.Point{2}, 2)
	if _, err := syncOnce(t, a, b, Options{}); err == nil {
		t.Fatal("sync of diverged same-origin histories unexpectedly succeeded")
	}
}

// A client holding more of an origin than the peer, diverged on the prefix
// both hold, refuses before pushing: the peer would otherwise append the
// client's later frames to its own diverged prefix.
func TestSyncDetectsDivergedOriginWhenAhead(t *testing.T) {
	a, b := newPeer(t, "x"), newPeer(t, "x")
	for v := 1.0; v <= 3; v++ {
		a.Observe(space.Point{v}, v)
	}
	b.Observe(space.Point{9}, 9)
	if _, err := syncOnce(t, a, b, Options{}); err == nil {
		t.Fatal("sync of diverged same-origin histories unexpectedly succeeded")
	}
	if h := b.High("x"); h != 1 {
		t.Fatalf("peer high %d after the refused sync, want 1", h)
	}
}

// TestSyncRejectsLocalDigestOverCap pins Sync's own bound on the digests it
// indexes. The decoder caps a remote digest; a local store with one origin
// more than maxSyncOrigins must be refused by Sync itself. The peer answers
// the hello without decoding it, so only Sync's check stands in the way.
func TestSyncRejectsLocalDigestOverCap(t *testing.T) {
	local := newPeer(t, "local")
	for i := 0; i <= maxSyncOrigins; i++ {
		f := measuredb.Frame{Origin: "o" + strconv.Itoa(i), Seq: 1, Point: space.Point{1}, Value: 1}
		if _, err := local.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer sc.Close()
		br := bufio.NewReader(sc)
		var magic [len(SyncMagic)]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil {
			return
		}
		var buf []byte
		if _, err := frame.Read(br, frame.MaxPayload, &buf); err != nil {
			return
		}
		var bufs syncBufs
		// A failed reply surfaces as Sync's error.
		_ = writeSyncMsg(sc, &bufs, &syncMsg{Op: opDigest, Seed: 42})
	}()
	_, err := Sync(cc, local, "peer", Options{})
	_ = cc.Close()
	<-done
	if want := strconv.Itoa(maxSyncOrigins+1) + "+0 origins"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Sync with %d local origins: err = %v, want the digest-cap refusal (%q)", maxSyncOrigins+1, err, want)
	}
}

// syncProbe is a recorder that checks, at every event, that neither the
// syncer's mutex nor the read-through cache's is held, then reads the
// syncer, the cache and the store back through their Stats. TryLock turns
// an emission under one of them into a test failure instead of a hang; the
// peer's serve loop touches neither, so nothing else holds them.
type syncProbe struct {
	t     *testing.T
	sy    *Syncer
	cache *Cache
	store *measuredb.Store
	event.Memory
}

func (p *syncProbe) Record(e event.Event) {
	p.Memory.Record(e)
	for name, mu := range map[string]*sync.Mutex{"syncer": &p.sy.mu, "cache": &p.cache.mu} {
		if !mu.TryLock() {
			p.t.Errorf("%s event recorded under the %s lock", e.EventKind(), name)
			return
		}
		mu.Unlock()
	}
	p.sy.Stats()
	p.cache.Stats()
	p.store.Stats()
}

// runSyncProbe runs one syncer round between two fresh peers under a
// syncProbe and returns the recorded stream as JSONL.
func runSyncProbe(t *testing.T) string {
	a, b := newPeer(t, "a"), newPeer(t, "b")
	a.Observe(space.Point{1, 2}, 9)
	b.Observe(space.Point{3, 4}, 7)
	est, err := sample.NewMinOfK(1)
	if err != nil {
		t.Fatal(err)
	}
	p := &syncProbe{t: t, cache: NewCache(a, est, 1, 0), store: a}
	var serving sync.WaitGroup
	dial := func(string) (net.Conn, error) {
		cc, sc := net.Pipe()
		serving.Add(1)
		go func() {
			defer serving.Done()
			defer sc.Close()
			br := bufio.NewReader(sc)
			var magic [len(SyncMagic)]byte
			if _, err := io.ReadFull(br, magic[:]); err != nil {
				return
			}
			_ = ServeConn(sc, br, ServeOptions{Store: b}) // always ends with the syncer's close
		}()
		return cc, nil
	}
	p.sy = NewSyncer(a, []string{"b"}, dial, Options{Recorder: p})
	err = p.sy.RunOnce()
	serving.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	jl := event.NewJSONL(&buf)
	for _, e := range p.Events() {
		jl.Record(e)
	}
	for _, kind := range []string{event.KindSyncStart, event.KindSyncSegments, event.KindSyncComplete} {
		if p.Count(kind) == 0 {
			t.Errorf("no %s event recorded; an emission site went unprobed", kind)
		}
	}
	return buf.String()
}

// A recorder may call back into the syncer, the cache and the store: no
// sync event is recorded under a feddb lock. Two runs of one round record
// byte-identical streams, so no payload reads the wall clock.
func TestRecorderMayReadSyncer(t *testing.T) {
	if first, second := runSyncProbe(t), runSyncProbe(t); first != second {
		t.Errorf("two runs of one sync round recorded different streams:\n%s\n%s", first, second)
	}
}
