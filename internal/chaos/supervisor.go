package chaos

import (
	"errors"
	"net"
	"sync"
	"time"

	"paratune/internal/harmony"
)

// memAddr is the MemListener's synthetic address.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// MemListener is an in-process net.Listener over synchronous pipes: Dial
// manufactures a net.Pipe pair and hands the server end to Accept. It lets
// the supervisor kill and restart a harmony server without fighting the OS
// for a stable TCP port — each incarnation gets a fresh listener, and the
// proxy's backend dialer targets whichever one is live.
type MemListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

// NewMemListener returns a ready listener.
func NewMemListener() *MemListener {
	return &MemListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

// Accept implements net.Listener.
func (l *MemListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener; it unblocks Accept and fails later Dials.
func (l *MemListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *MemListener) Addr() net.Addr { return memAddr{} }

// Dial connects a new client conn through the listener, or fails once the
// listener is closed.
func (l *MemListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		_ = client.Close()
		_ = server.Close()
		return nil, net.ErrClosed
	}
}

// SupervisorConfig wires a Supervisor to the server lifecycle it manages.
type SupervisorConfig struct {
	// NewServer builds (or rebuilds) the harmony server, restoring whatever
	// durable state survives a crash — the checkpoint file and the
	// measurement-database WAL. The returned cleanup releases resources the
	// server incarnation owns (the measuredb handle); it runs after the
	// incarnation's listener and connections are torn down. Required.
	NewServer func() (*harmony.Server, func(), error)
	// Checkpoint persists the running server's sessions; called every
	// CheckpointEvery while the incarnation is up. nil disables
	// auto-checkpointing (a kill then loses all session state).
	Checkpoint func(*harmony.Server) error
	// CheckpointEvery is the auto-checkpoint period; default 100ms. The
	// window between the last checkpoint and a kill is the state a crash can
	// lose — sessions registered inside it come back as unknown_session and
	// clients must re-register.
	CheckpointEvery time.Duration
	// ConnOptions sets the served connections' transport deadlines.
	ConnOptions harmony.ConnOptions
}

// Supervisor runs a harmony server as a crash-restartable incarnation chain:
// Start brings one up, Kill tears it down abruptly — closing the listener,
// every live connection, and the server with *no* final checkpoint, the
// in-process equivalent of kill -9 — and the next Start builds the next
// incarnation from the durable state the last auto-checkpoint and the
// measuredb WAL preserved. The proxy's backend dialer calls Dial, which targets whichever
// incarnation is live and fails fast between them.
type Supervisor struct {
	cfg SupervisorConfig

	mu      sync.Mutex //paralint:lockrank 10
	l       *MemListener
	srv     *harmony.Server
	cleanup func()
	gen     int
	wg      sync.WaitGroup
	stop    chan struct{} // stops the incarnation's checkpoint loop

	// life serialises Start and Kill end to end, so a new incarnation never
	// starts while Kill is still tearing the previous one down. It is last:
	// lockdiscipline reads fields after mu as mu's.
	life sync.Mutex //paralint:lockrank 5
}

// NewSupervisor validates cfg and returns an idle supervisor; call Start.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.NewServer == nil {
		return nil, errors.New("chaos: supervisor needs a NewServer factory")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 100 * time.Millisecond
	}
	return &Supervisor{cfg: cfg}, nil
}

// Start brings up a server incarnation: build it from durable state, serve
// it on a fresh MemListener, and begin the auto-checkpoint loop.
func (s *Supervisor) Start() error {
	s.life.Lock()
	defer s.life.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return errors.New("chaos: supervisor already running")
	}
	srv, cleanup, err := s.cfg.NewServer()
	if err != nil {
		return err
	}
	l := NewMemListener()
	stop := make(chan struct{})
	s.srv, s.cleanup, s.l, s.stop = srv, cleanup, l, stop
	s.gen++
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// ServeWith returns nil once Kill closes the listener
		_ = harmony.ServeWith(l, srv, s.cfg.ConnOptions)
	}()
	if s.cfg.Checkpoint != nil {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(s.cfg.CheckpointEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					// a failed periodic checkpoint only widens the loss window
					_ = s.cfg.Checkpoint(srv)
				}
			}
		}()
	}
	return nil
}

// Kill tears the live incarnation down abruptly: no final checkpoint is
// written, so everything since the last auto-checkpoint is lost — exactly
// the crash the recovery path must absorb. Safe to call when already down.
func (s *Supervisor) Kill() {
	s.life.Lock()
	defer s.life.Unlock()
	s.mu.Lock()
	srv, cleanup, l, stop := s.srv, s.cleanup, s.l, s.stop
	s.srv, s.cleanup, s.l, s.stop = nil, nil, nil, nil
	s.mu.Unlock()
	if srv == nil {
		return
	}
	close(stop)
	_ = l.Close()
	srv.Close()
	s.wg.Wait()
	if cleanup != nil {
		cleanup()
	}
}

// Stop shuts the incarnation down gracefully: one final checkpoint, then
// the same teardown as Kill.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv != nil && s.cfg.Checkpoint != nil {
		// best-effort final checkpoint; teardown proceeds regardless
		_ = s.cfg.Checkpoint(srv)
	}
	s.Kill()
}

// Dial connects to the live incarnation, or fails when the server is down
// (mid-kill) — the proxy surfaces that as a refused link and the harmony
// client's capped backoff retries until the next Start completes.
func (s *Supervisor) Dial() (net.Conn, error) {
	s.mu.Lock()
	l := s.l
	s.mu.Unlock()
	if l == nil {
		return nil, errors.New("chaos: server is down")
	}
	return l.Dial()
}

// Server returns the live incarnation's server, or nil while down. The
// pointer is only stable until the next Kill; use it for assertions, not
// for holding across restarts.
func (s *Supervisor) Server() *harmony.Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srv
}

// Generation returns how many incarnations Start has brought up.
func (s *Supervisor) Generation() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// KillFor returns a Killer that kills the incarnation, sleeps the planned
// downtime, and restarts it — the standard wiring between a Proxy's kill
// schedule and a Supervisor.
func (s *Supervisor) KillFor() Killer {
	return KillerFunc(func(downMS float64) {
		s.Kill()
		time.Sleep(time.Duration(downMS * float64(time.Millisecond)))
		// a failed restart leaves the server down; clients surface it as dial failures
		_ = s.Start()
	})
}
