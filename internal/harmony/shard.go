package harmony

import (
	"fmt"
	"sort"
	"sync"

	"paratune/internal/event"
	"paratune/internal/space"
)

// sessionShards is the width of the sharded session table: registration and
// session lookup for different names spread over independently locked maps
// (FNV-1a on the session name, mirroring internal/measuredb's 16-shard
// store), so fleet-scale request storms on one session never serialise
// against registrations or lookups of another. Dispatch itself is guarded by
// each session's own mutex; the shard lock is held only for map access.
const sessionShards = 16

// maxBatchOps caps how many candidates or measurements one batched fetchN /
// reportN frame may carry, so a hostile frame cannot request an unbounded
// allocation or monopolise a session lock.
const maxBatchOps = 1024

// FNV-1a constants for shard selection (same idiom as internal/measuredb).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// sessionShard is one lock-striped slice of the session table. The shard
// mutex ranks below the per-session step lock and mutex (ranks 25, 30) in
// the lock-rank ladder: a shard lock may be taken while no lock is held, and session or
// measuredb locks may be taken under it (registration binds the DB space
// under the shard lock), but never another shard's.
type sessionShard struct {
	mu       sync.Mutex //paralint:lockrank 22
	sessions map[string]*session
}

// shard returns the shard owning name.
func (srv *Server) shard(name string) *sessionShard {
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return &srv.shards[h%uint64(len(srv.shards))]
}

// shardMutateErr runs fn while holding name's shard lock and records every
// event fn queued only after the lock is released. It is the single place
// the "emit only after the table lock is released" rule lives for
// shard-table mutations (register, restore, expire): the recorder may block
// or re-enter the server, and emitting under the shard lock would deadlock.
// Routing every mutation through this helper keeps that rule in one place.
func (srv *Server) shardMutateErr(name string, fn func(sh *sessionShard) ([]event.Event, error)) error {
	sh := srv.shard(name)
	sh.mu.Lock()
	evs, err := fn(sh)
	sh.mu.Unlock()
	for _, e := range evs {
		srv.rec.Record(e)
	}
	return err
}

// shardMutate is shardMutateErr for mutations that cannot fail.
func (srv *Server) shardMutate(name string, fn func(sh *sessionShard) []event.Event) {
	//paralint:allow errdiscipline adapter: fn queues events and cannot fail
	_ = srv.shardMutateErr(name, func(sh *sessionShard) ([]event.Event, error) {
		return fn(sh), nil
	})
}

// session resolves a name to its live session, taking only the owning
// shard's lock for the map read — lookups for different sessions proceed on
// different shards without contention.
func (srv *Server) session(name string) (*session, error) {
	s := srv.lookup(name)
	if s == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, name)
	}
	return s, nil
}

// lookup is session without the error: nil when name is not live. Paths
// that ignore the miss (frame bookkeeping before a register) use it so a
// miss allocates nothing.
func (srv *Server) lookup(name string) *session {
	sh := srv.shard(name)
	sh.mu.Lock()
	s := sh.sessions[name]
	sh.mu.Unlock()
	return s
}

// Sessions lists registered session names in sorted order. The listing walks
// the shards one lock at a time — no global lock exists to hold — so it is a
// consistent snapshot only when no registrations are in flight; sorting
// makes the order (and everything built on it, notably CheckpointAll)
// deterministic regardless of shard hashing.
func (srv *Server) Sessions() []string {
	var names []string
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.mu.Lock()
		for n := range sh.sessions {
			names = append(names, n)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// ReportItem is one measurement inside a batched reportn frame.
type ReportItem struct {
	// Tag names the sample slot the measurement fills, as its grant did; 0
	// reports (production-configuration measurements) are accepted and
	// ignored.
	Tag uint64
	// Value is the measured time.
	Value float64
}

// BatchReportResult summarises one ReportN frame. Every item lands in
// exactly one of Accepted, Rejected and Refused, so the three sum to the
// frame's item count.
type BatchReportResult struct {
	// Accepted counts the items the session took: slots filled, surplus
	// values, and resends and retired-batch reports, which record nothing
	// but succeed.
	Accepted int
	// Rejected counts invalid values and tags never issued.
	Rejected int
	// Refused counts the items of an oversized frame past the first
	// maxBatchOps (1024), which are not applied. They are retryable: send
	// them again in a later frame.
	Refused int
}

// FetchN returns up to n units of work for a client of the named session in
// one round trip, so a client can collect every sample a batch still needs
// at once. Each unit is one sample slot of one candidate, and its tag names
// that slot. FetchN walks the session's candidate ring from a per-session
// cursor in passes, pass-major (c1…cP, then c1…cP again), handing out each
// candidate's next empty slot not yet issued. A P-candidate batch at
// min-of-K therefore drains in one FetchN and one ReportN whenever K·P ≤ n,
// and the sequence of samples is exactly that of repeated one-pass fetches,
// so a client that reports everything it fetched follows the same trajectory
// at any n. Concurrent fetchers get disjoint slots first; only when every
// slot is issued does FetchN fall back to handing out each unmeasured
// candidate's first empty slot once per call, so work lost with a client is
// reissued. When every slot is filled (or no batch is outstanding) it
// returns the single best-known configuration with Tag 0. Fetch is
// FetchN(name, 1).
func (srv *Server) FetchN(name string, n int) ([]FetchResult, error) {
	out, err := srv.fetchN(nil, name, n)
	for i := range out {
		out[i].Point = out[i].Point.Clone()
	}
	return out, err
}

// fetchN appends FetchN's grant to dst. Candidate points are shared rather
// than cloned — they are immutable once proposed — so the wire path encodes
// a grant straight from the batch into a reused response slice.
func (srv *Server) fetchN(dst []FetchResult, name string, n int) ([]FetchResult, error) {
	s, err := srv.session(name)
	if err != nil {
		return dst, err
	}
	if n <= 0 {
		n = 1
	}
	if n > maxBatchOps {
		n = maxBatchOps
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastUsed = s.opts.Clock.Now()
	if s.runErr != nil {
		return dst, s.runErr
	}
	start := len(dst)
	limit := start + n
	total := len(s.cands)
	// Unissued slots, pass after pass, until a whole revolution of the ring
	// grants nothing.
	for pos, idle := s.rrNext, 0; len(dst) < limit && idle < total; pos = (pos + 1) % total {
		c := &s.cands[pos]
		j := c.unissued()
		if j == len(c.obs) {
			idle++
			continue
		}
		idle = 0
		c.next = j + 1
		dst = append(dst, FetchResult{Point: c.point, Tag: c.tag + uint64(j)})
		s.rrNext = (pos + 1) % total
	}
	if len(dst) > start {
		return dst, nil
	}
	// Every slot is issued: hand out each unmeasured candidate's first empty
	// slot once.
	for pos, off := s.rrNext, 0; off < total && len(dst) < limit; pos, off = (pos+1)%total, off+1 {
		c := &s.cands[pos]
		j := c.firstEmpty()
		if j == len(c.obs) {
			continue
		}
		dst = append(dst, FetchResult{Point: c.point, Tag: c.tag + uint64(j)})
		s.rrNext = (pos + 1) % total
	}
	if len(dst) > start {
		return dst, nil
	}
	return append(dst, FetchResult{Point: s.best, Tag: 0, Converged: s.converged}), nil
}

// convergedLocked reports whether fetchN would answer {best, tag 0,
// converged}: the engine finished without error and no candidate has an
// empty slot left to grant. That answer never changes again, so a reply
// may carry it in place of the next fetch. Caller holds s.mu.
func (s *session) convergedLocked() bool {
	return s.converged && s.runErr == nil && s.missing == 0
}

// ReportN records a batch of measurements for the named session in one round
// trip. Items are applied in order under one hold of the session lock; each
// is classified rather than failing the frame — invalid values and tags
// never issued count as Rejected, items past maxBatchOps as Refused — so one
// bad measurement cannot void the rest of the frame. A resent frame is
// accepted whole and records nothing twice, even when its first delivery
// completed the batch.
func (srv *Server) ReportN(name string, items []ReportItem) (BatchReportResult, error) {
	s, err := srv.session(name)
	if err != nil {
		return BatchReportResult{}, err
	}
	//paralint:allow errdiscipline the per-item outcomes are in the result; only the wire reply carries the last rejection
	res, _ := s.reportN(items)
	return res, nil
}

// reportN is ReportN on a resolved session. The error is the last rejected
// item's, nil when none was rejected; a PHWIRE1 reportn reply carries it so
// that a one-item frame answers as a single Report does.
func (s *session) reportN(items []ReportItem) (BatchReportResult, error) {
	over := 0
	if len(items) > maxBatchOps {
		over = len(items) - maxBatchOps
		items = items[:maxBatchOps]
	}
	res, err := s.report(items)
	res.Refused += over
	return res, err
}

// internedSpace is the space of the parameter list a session last
// registered over, with its own deep copy of that list as registered, so a
// repeat registration of an equal list (space.SameParams) skips validating
// it, formatting its signature and binding the store. A space is kept only
// after its first session bound it, so a space the store rejects is rebuilt
// and rejected on every attempt.
type internedSpace struct {
	params []space.Parameter
	sp     *space.Space
}
