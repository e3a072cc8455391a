package feddb

import (
	"net"
	"sync"
	"time"

	"paratune/internal/measuredb"
)

// Syncer runs periodic anti-entropy rounds against a fixed peer set. Each
// round dials every peer in turn, syncs, and closes the connection; a peer
// that is down simply costs one failed dial until the next round. The
// syncer keeps no per-peer state: a round killed part way is resumed by the
// next round's digest exchange.
type Syncer struct {
	store *measuredb.Store
	peers []string
	opts  Options
	dial  func(addr string) (net.Conn, error)

	mu     sync.Mutex //paralint:lockrank 24
	rounds uint64
	errs   uint64
}

// SyncerStats is a point-in-time counter snapshot.
type SyncerStats struct {
	// Rounds counts completed per-peer sync attempts; Errors the subset
	// that failed.
	Rounds, Errors uint64
}

// NewSyncer builds a syncer over store for the given peer addresses. dial
// is the connection factory (nil means net.Dial "tcp" with the options'
// write timeout); opts configures each round.
func NewSyncer(store *measuredb.Store, peers []string, dial func(addr string) (net.Conn, error), opts Options) *Syncer {
	s := &Syncer{store: store, peers: peers, opts: opts, dial: dial}
	if s.dial == nil {
		timeout := opts.WriteTimeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		s.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return s
}

// RunOnce syncs every peer once and returns the first error (after still
// attempting the remaining peers).
func (s *Syncer) RunOnce() error {
	var first error
	for _, addr := range s.peers {
		if err := s.syncPeer(addr); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// syncPeer dials one peer and runs one round.
func (s *Syncer) syncPeer(addr string) error {
	err := func() error {
		conn, derr := s.dial(addr)
		if derr != nil {
			return derr
		}
		defer conn.Close()
		_, serr := Sync(conn, s.store, addr, s.opts)
		return serr
	}()

	s.mu.Lock()
	s.rounds++
	if err != nil {
		s.errs++
	}
	s.mu.Unlock()
	return err
}

// Run loops RunOnce every interval until stop closes. Errors are counted,
// not returned: anti-entropy is self-healing, so the loop just tries again
// next tick.
func (s *Syncer) Run(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// a failed round is counted and retried next tick
			_ = s.RunOnce()
		}
	}
}

// Stats snapshots the syncer counters.
func (s *Syncer) Stats() SyncerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SyncerStats{Rounds: s.rounds, Errors: s.errs}
}
