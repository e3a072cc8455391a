package chaos

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"paratune/internal/event"
	"paratune/internal/frame"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// faultyConfig is a representative mixed-fault schedule for tests.
func faultyConfig(seed int64, rec event.Recorder) Config {
	return Config{
		Seed:       seed,
		Links:      12,
		Frames:     48,
		PDelay:     0.06,
		PDrop:      0.04,
		PDup:       0.05,
		PTruncate:  0.02,
		PReset:     0.03,
		DelayMinMS: 1, DelayMaxMS: 5,
		Recorder: rec,
	}
}

func TestScheduleDeterminism(t *testing.T) {
	plan := func(seed int64) []byte {
		var buf bytes.Buffer
		newSchedule(mustNormalised(t, faultyConfig(seed, nil))).emit(event.NewJSONL(&buf))
		return buf.Bytes()
	}
	a, b := plan(7), plan(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed schedules emitted different plans")
	}
	if len(a) == 0 {
		t.Fatal("mixed-fault schedule emitted an empty plan")
	}
	if bytes.Equal(a, plan(8)) {
		t.Fatal("different seeds emitted identical plans")
	}
}

func mustNormalised(t *testing.T, cfg Config) Config {
	t.Helper()
	if err := cfg.normalise(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestConfigRejectsBadProbabilities(t *testing.T) {
	bad := Config{PDrop: 0.9, PReset: 0.2}
	if _, err := New(bad, func() (net.Conn, error) { return nil, nil }, nil); err == nil {
		t.Fatal("probabilities summing past 1 should be rejected")
	}
}

func TestMemListener(t *testing.T) {
	l := NewMemListener()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := conn.Read(buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if _, err := conn.Write(buf); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	conn, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	wg.Wait()

	_ = l.Close()
	if _, err := l.Dial(); err == nil {
		t.Error("dial after close should fail")
	}
	if _, err := l.Accept(); err == nil {
		t.Error("accept after close should fail")
	}
}

// spaceParams flattens a Space back into its parameter slice for Register.
func spaceParams(s *space.Space) []space.Parameter {
	out := make([]space.Parameter, s.Dim())
	for i := range out {
		out[i] = s.Param(i)
	}
	return out
}

// harness bundles one supervised server behind one chaos proxy for tests.
type harness struct {
	sup   *Supervisor
	proxy *Proxy
	l     net.Listener
}

// startHarness wires supervisor → proxy → TCP front and returns the client
// dial address. ckpt/dbDir empty disables that durability leg.
func startHarness(t *testing.T, cfg Config, ckpt, dbDir string, every time.Duration) *harness {
	t.Helper()
	newServer := func() (*harmony.Server, func(), error) {
		opts := harmony.ServerOptions{Estimator: mustMin1(t)}
		var db *measuredb.Store
		if dbDir != "" {
			var err error
			db, err = measuredb.Open(dbDir, measuredb.Options{Seed: 1})
			if err != nil {
				return nil, nil, err
			}
			opts.DB = db
		}
		srv := harmony.NewServer(opts)
		if ckpt != "" {
			if data, err := os.ReadFile(ckpt); err == nil {
				if err := srv.RestoreAll(data); err != nil {
					return nil, nil, err
				}
			}
		}
		cleanup := func() {
			if db != nil {
				_ = db.Close()
			}
		}
		return srv, cleanup, nil
	}
	scfg := SupervisorConfig{NewServer: newServer, CheckpointEvery: every}
	if ckpt != "" {
		scfg.Checkpoint = func(srv *harmony.Server) error {
			data, err := srv.CheckpointAll()
			if err != nil {
				return err
			}
			tmp := ckpt + ".tmp"
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return err
			}
			return os.Rename(tmp, ckpt)
		}
	}
	sup, err := NewSupervisor(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	proxy, err := New(cfg, sup.Dial, sup.KillFor())
	if err != nil {
		sup.Kill()
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sup.Kill()
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Serve returns nil once the test closes the listener
		_ = proxy.Serve(l)
	}()
	h := &harness{sup: sup, proxy: proxy, l: l}
	t.Cleanup(func() {
		_ = l.Close()
		proxy.Close()
		wg.Wait()
		sup.Kill()
	})
	return h
}

func mustMin1(t *testing.T) sample.Estimator {
	t.Helper()
	est, err := sample.NewMinOfK(1)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func chaosClient(t *testing.T, addr string, seed int64) *harmony.Client {
	t.Helper()
	c, err := harmony.DialWith(addr, harmony.DialOptions{
		Retries:    25,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 25 * time.Millisecond,
		Timeout:    400 * time.Millisecond,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// tune drives nClients through the proxy until the session converges.
func tune(t *testing.T, addr, session string, nClients, maxIters int) {
	t.Helper()
	db := objective.GenerateGS2(objective.GS2Config{Seed: 11})
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := chaosClient(t, addr, int64(100+id))
			if id == 0 {
				if err := c.Register(session, spaceParams(db.Space())); err != nil {
					t.Errorf("register: %v", err)
					return
				}
			} else {
				// Joiners wait for the session to exist.
				for j := 0; ; j++ {
					if err := c.Register(session, spaceParams(db.Space())); err == nil {
						break
					} else if j > 50 {
						t.Errorf("client %d never joined: %v", id, err)
						return
					}
				}
			}
			measure := func(p space.Point) (float64, error) { return db.Eval(p), nil }
			// A kill that lands before the session is checkpointable loses it;
			// the recovery contract is re-register and keep tuning.
			for round := 0; ; round++ {
				_, err := harmony.RunLoop(c, session, measure, maxIters)
				if err == nil {
					return
				}
				if errors.Is(err, harmony.ErrUnknownSession) && round < 5 {
					if rerr := c.Register(session, spaceParams(db.Space())); rerr == nil || errors.Is(rerr, harmony.ErrUnknownSession) {
						continue
					}
				}
				t.Errorf("client %d: %v", id, err)
				return
			}
		}(i)
	}
	wg.Wait()
}

func TestProxyTransparent(t *testing.T) {
	h := startHarness(t, Config{Seed: 3}, "", "", 0)
	tune(t, h.l.Addr().String(), "clean", 2, 3000)
}

func TestProxyFaultsSessionSurvives(t *testing.T) {
	var mem event.Memory
	h := startHarness(t, faultyConfig(5, &mem), "", "", 0)
	tune(t, h.l.Addr().String(), "chaotic", 2, 3000)
	if n := mem.Count(event.KindChaosApplied); n == 0 {
		t.Error("no faults were applied; the schedule never fired")
	}
	if mem.Count(event.KindChaosPlan) == 0 {
		t.Error("plan events missing from the recorder")
	}
}

// TestStartWaitsForKill starts an incarnation while Kill is still tearing
// the previous one down: Start must wait for the teardown to finish, or the
// two incarnations overlap (and race on the supervisor's goroutine join).
func TestStartWaitsForKill(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	cleaned := 0
	sup, err := NewSupervisor(SupervisorConfig{NewServer: func() (*harmony.Server, func(), error) {
		cleanup := func() {
			<-release
			mu.Lock()
			cleaned++
			mu.Unlock()
		}
		return harmony.NewServer(harmony.ServerOptions{}), cleanup, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Start(); err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		sup.Kill()
	}()
	// Wait until Kill has taken the incarnation down to its cleanup.
	for sup.Server() != nil {
		time.Sleep(time.Millisecond)
	}
	started := make(chan error, 1)
	go func() { started <- sup.Start() }()
	select {
	case err := <-started:
		t.Fatalf("Start returned (%v) while Kill was still tearing down", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-killed
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := cleaned
	mu.Unlock()
	if n != 1 || sup.Generation() != 2 {
		t.Fatalf("cleanups = %d, generation = %d; want 1 and 2", n, sup.Generation())
	}
	sup.Kill()
}

func TestSupervisorKillRestart(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "tuning.ckpt")
	dbDir := filepath.Join(dir, "mdb")
	h := startHarness(t, Config{Seed: 9}, ckpt, dbDir, 10*time.Millisecond)
	db := objective.GenerateGS2(objective.GS2Config{Seed: 11})
	c := chaosClient(t, h.l.Addr().String(), 77)
	if err := c.Register("survivor", spaceParams(db.Space())); err != nil {
		t.Fatal(err)
	}
	// Drive fetch/report rounds until the optimiser leaves its initial
	// simplex and the auto-checkpoint captures the session (CheckpointAll
	// skips uninitialised sessions, so an early kill would lose it — the
	// documented re-register degradation, not what this test pins).
	captured := false
	for i := 0; i < 400 && !captured; i++ {
		fr, err := c.Fetch("survivor")
		if err != nil {
			t.Fatal(err)
		}
		if fr.Tag != 0 {
			if err := c.Report("survivor", fr.Tag, db.Eval(fr.Point)); err != nil && !harmony.IsPermanent(err) {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			time.Sleep(15 * time.Millisecond) // one checkpoint period
			if data, err := os.ReadFile(ckpt); err == nil && bytes.Contains(data, []byte("survivor")) {
				captured = true
			}
		}
	}
	if !captured {
		t.Fatal("auto-checkpoint never captured the session")
	}

	// kill -9 and restart from the checkpoint + WAL.
	h.sup.Kill()
	if err := h.sup.Start(); err != nil {
		t.Fatal(err)
	}
	if g := h.sup.Generation(); g < 2 {
		t.Fatalf("generation = %d, want >= 2", g)
	}

	// The client's next call must reconnect and find the restored session —
	// no re-registration.
	if _, err := c.Fetch("survivor"); err != nil {
		t.Fatalf("fetch after kill/restart: %v", err)
	}
	if c.Reconnects() == 0 {
		t.Error("client never reconnected; the kill did not cut its connection")
	}
	if srv := h.sup.Server(); srv != nil {
		found := false
		for _, name := range srv.Sessions() {
			if name == "survivor" {
				found = true
			}
		}
		if !found {
			t.Error("restored server lost the session")
		}
	}
}

func TestScheduledKillFires(t *testing.T) {
	cfg := Config{
		Seed:            21,
		Kills:           1,
		KillEveryFrames: 4,
		DownMinMS:       5,
		DownMaxMS:       15,
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "tuning.ckpt")
	h := startHarness(t, cfg, ckpt, "", 5*time.Millisecond)
	tune(t, h.l.Addr().String(), "killed", 2, 3000)
	if g := h.sup.Generation(); g < 2 {
		t.Errorf("generation = %d; the scheduled kill never fired", g)
	}
}

// TestProxyDropsMisframedLink pins the relay's framing to the endpoints':
// a length prefix they reject — non-minimal, or overflowing 64 bits in its
// tenth byte — drops the link instead of being relayed as some other frame,
// and only the preamble reaches the backend. A link that opens with neither
// preamble, such as a JSON line, is dropped before anything is relayed.
func TestProxyDropsMisframedLink(t *testing.T) {
	cases := map[string]struct{ sent, relayed string }{
		"non-minimal": {harmony.WireMagic + "\x80\x00\x00\x00\x00\x00", harmony.WireMagic},
		"overflowing": {harmony.WireMagic + "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02\x00\x00\x00\x00", harmony.WireMagic},
		"json line":   {`{"op":"best","session":"s"}` + "\n", ""},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			backend, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			got := make(chan []byte, 1)
			go func() {
				c, err := backend.Accept()
				if err != nil {
					got <- nil
					return
				}
				defer c.Close()
				b, _ := io.ReadAll(c)
				got <- b
			}()
			p, err := New(Config{Seed: 1}, func() (net.Conn, error) {
				return net.Dial("tcp", backend.Addr().String())
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				_ = p.Serve(l)
			}()
			defer func() {
				_ = l.Close()
				<-served
			}()
			client, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Write([]byte(tc.sent)); err != nil {
				t.Fatal(err)
			}
			select {
			case b := <-got:
				if string(b) != tc.relayed {
					t.Fatalf("backend received %q, want %q", b, tc.relayed)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("proxy kept the misframed link open")
			}
		})
	}
}

// proxyProbe is a recorder that checks, at every event, that the proxy's
// mutex is free. TryLock turns an emission under it into a test failure
// instead of a hang. Events recorded before p is set (New's plan replay)
// have no proxy a recorder could reach yet.
type proxyProbe struct {
	t *testing.T
	p *Proxy
	event.Memory
}

func (pr *proxyProbe) Record(e event.Event) {
	pr.Memory.Record(e)
	if pr.p == nil {
		return
	}
	if !pr.p.mu.TryLock() {
		pr.t.Errorf("%s event recorded under the proxy lock", e.EventKind())
		return
	}
	pr.p.mu.Unlock()
}

// A recorder may call back into the proxy: no applied fault or fired kill
// is recorded under the proxy's lock. The test forwards one client→server
// link on its own goroutine, the one that counts frames toward kills and
// records both kinds, so no other goroutine takes the lock meanwhile.
func TestRecorderMayReadProxy(t *testing.T) {
	probe := &proxyProbe{t: t}
	cfg := Config{
		Seed: 9, Links: 1, Frames: 32, PDelay: 0.1, PDrop: 0.2, PDup: 0.2,
		DelayMinMS: 1, DelayMaxMS: 1, Kills: 2, KillEveryFrames: 4, Recorder: probe,
	}
	noBackend := func() (net.Conn, error) { return nil, errors.New("no backend") }
	p, err := New(cfg, noBackend, KillerFunc(func(float64) {}))
	if err != nil {
		t.Fatal(err)
	}
	probe.p = p
	client, src := net.Pipe()
	dst, server := net.Pipe()
	var ends sync.WaitGroup
	ends.Add(2)
	go func() {
		defer ends.Done()
		msg := []byte(harmony.WireMagic)
		for i := range 32 {
			msg = frame.Append(msg, []byte{byte(i)})
		}
		_, _ = client.Write(msg) // fails only if forward dropped the link early
		_ = client.Close()
	}()
	go func() {
		defer ends.Done()
		_, _ = io.Copy(io.Discard, server)
	}()
	p.wg.Add(1)
	p.forward(0, 0, src, dst)
	p.Close()
	ends.Wait()

	fired := 0
	for _, e := range probe.Events() {
		if k, ok := e.(event.ChaosKill); ok && k.Applied {
			fired++
		}
	}
	if probe.Count(event.KindChaosApplied) == 0 || fired == 0 {
		t.Errorf("%d applied faults and %d fired kills recorded; an emission site went unprobed",
			probe.Count(event.KindChaosApplied), fired)
	}
}
