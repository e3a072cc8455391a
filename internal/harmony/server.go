// Package harmony provides an Active-Harmony-style on-line tuning server:
// the infrastructure role of [18] in the paper. Applications register their
// tunable parameters, then repeatedly fetch a candidate configuration, run
// one iteration, and report the measured time. The server drives a PRO
// optimiser (or any core.Algorithm) behind the scenes, aggregates repeated
// measurements with a configurable estimator (min-of-K by default), and
// serves the best-known configuration once tuning has converged.
//
// The measurement pipeline is fault-tolerant: reported values are validated
// (NaN/±Inf/negative reports are rejected before they can poison the
// estimator), every candidate batch carries a progress deadline with bounded
// reissue so a vanished client cannot wedge a session, every grant names one
// sample slot so a resent report finds its slot filled and reconnect
// retries are idempotent, idle sessions expire, and whole sessions can be
// checkpointed and restored across server restarts without losing the
// optimiser's simplex.
//
// Two transports are provided: direct in-process calls on *Server, and
// PHWIRE1 over TCP (Serve/Client), a length-prefixed binary framing
// (wire.go). PHWIRE1's ops are register, best, stats and the batched
// fetchn and reportn; Client.Fetch and Client.Report are their one-item
// cases, and answer as Server.Fetch and Server.Report do.
package harmony

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paratune/internal/core"
	"paratune/internal/event"
	"paratune/internal/fault"
	"paratune/internal/measuredb"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// AlgorithmFactory builds the optimiser for a new session.
type AlgorithmFactory func(s *space.Space) (core.Algorithm, error)

// ErrInvalidValue marks a report whose value cannot be a measurement: NaN,
// ±Inf, or negative. Wire responses carry it as code "invalid_value".
var ErrInvalidValue = errors.New("harmony: invalid measurement value (must be finite and non-negative)")

// ErrUnknownSession marks a request naming a session the server does not
// hold — never registered, expired, or lost to a restart whose checkpoint
// predates the registration. Wire responses carry it as code
// "unknown_session"; clients treat it as permanent and re-register instead
// of redialling.
var ErrUnknownSession = errors.New("harmony: unknown session")

// errServerClosed refuses a session start once Close has begun.
var errServerClosed = errors.New("harmony: server closed")

// ServerOptions configures session behaviour.
type ServerOptions struct {
	// Estimator reduces repeated measurements per candidate; min-of-3 when
	// nil.
	Estimator sample.Estimator
	// NewAlgorithm builds the per-session optimiser; PRO with defaults when
	// nil.
	NewAlgorithm AlgorithmFactory
	// MeasurementTimeout is the per-batch progress deadline: when no new
	// measurement arrives within one window, outstanding candidates are
	// re-issued (their issue counts reset so Fetch hands them out afresh);
	// after MaxReissues consecutive stale windows the batch force-completes,
	// scoring unmeasured candidates at the worst value seen so far, so a lost
	// client can never wedge the session. The sweeper checks it on Clock every
	// quarter window. 0 picks the 30s default; negative disables the deadline.
	MeasurementTimeout time.Duration
	// MaxReissues is the number of consecutive stale windows tolerated before
	// a batch force-completes; default 3.
	MaxReissues int
	// IdleTimeout expires sessions that see no Fetch/Report activity for the
	// given duration; expired sessions are stopped and removed. 0 disables.
	IdleTimeout time.Duration
	// Clock supplies wall time for session bookkeeping (lastUsed stamps,
	// idle expiry and batch deadlines). nil uses the system clock; tests
	// inject a fake clock so expiry runs without real sleeps.
	Clock Clock
	// Recorder receives session lifecycle and optimiser iteration events
	// (registered/restored, batch proposed/complete/degraded, converged,
	// stopped, expired); nil records nothing. Payloads carry session names
	// and counters only — never wall-clock time. No event is recorded under
	// a shard or session mutex (TestRecorderMayReadServer), so the recorder
	// may call Best, Stats, Sessions and FetchN, which take only those. It
	// must not call Stop or Checkpoint, which wait for the step lock it may
	// record under.
	Recorder event.Recorder
	// DB, when non-nil, is the measurement database: every accepted candidate
	// report is recorded into it, and batch candidates whose estimate is
	// already resolved (>= Estimator.K() stored observations) are answered
	// from it without ever being issued to a client — the cross-restart warm
	// start. The store binds to one parameter-space signature, so every
	// session sharing the server must share the space.
	DB *measuredb.Store
	// Cache, when non-nil, answers the session Memo's warm-start lookups
	// instead of the store's raw observations: the read-through estimate
	// cache (feddb.Cache) memoises per-config estimates and is invalidated by
	// every store write, local or federated. Ignored unless DB is set; the
	// cache-less lookup serves the same values.
	Cache measuredb.EstimateCache
}

func (o *ServerOptions) normalise() {
	if o.Estimator == nil {
		est, _ := sample.NewMinOfK(3) //paralint:allow errdiscipline K=3 is statically valid
		o.Estimator = est
	}
	if o.NewAlgorithm == nil {
		o.NewAlgorithm = func(s *space.Space) (core.Algorithm, error) {
			return core.NewPRO(core.Options{Space: s})
		}
	}
	if o.MeasurementTimeout == 0 {
		o.MeasurementTimeout = 30 * time.Second
	}
	if o.MaxReissues <= 0 {
		o.MaxReissues = 3
	}
	if o.Clock == nil {
		o.Clock = SystemClock()
	}
}

// Server coordinates tuning sessions. The session table is sharded (see
// shard.go): there is no server-global lock, so registration, lookup, and
// dispatch for different sessions never contend.
type Server struct {
	opts      ServerOptions
	rec       event.Recorder     // never nil (OrNop); safe for concurrent use
	shards    []sessionShard     // fixed at construction; shard() hashes into it
	stopSweep context.CancelFunc // ends the sweeper
	sweeping  sync.WaitGroup     // the sweeper, joined by Close
	closed    atomic.Bool        // set by Close; no session starts after it

	// lastSpace is the space of the parameter list last registered.
	lastSpace atomic.Pointer[internedSpace]
}

// NewServer creates an empty server.
func NewServer(opts ServerOptions) *Server {
	return newServerWithShards(opts, sessionShards)
}

// newServerWithShards sizes the session table explicitly. The
// parallel-session benchmark uses width 1 to reconstruct the pre-sharding
// single-mutex server as its baseline.
func newServerWithShards(opts ServerOptions, n int) *Server {
	opts.normalise()
	if n < 1 {
		n = 1
	}
	srv := &Server{
		opts:   opts,
		rec:    event.OrNop(opts.Recorder),
		shards: make([]sessionShard, n),
	}
	for i := range srv.shards {
		srv.shards[i].sessions = make(map[string]*session)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.stopSweep = cancel
	if period := sweepPeriod(opts); period > 0 {
		srv.sweeping.Add(1)
		go srv.sweep(ctx, period)
	}
	return srv
}

// candidate is one configuration awaiting measurements in K sample slots,
// tagged tag, tag+1, …, tag+K−1. Its point is never written after the batch
// is proposed, so fetch responses share it.
type candidate struct {
	point  space.Point
	tag    uint64    // slot 0's tag
	obs    []float64 // one value per slot; NaN while the slot is empty
	filled int       // slots holding a value
	next   int       // slots below it were handed out this issue round
}

// emptySlot marks a slot no report has filled. fault.ValidValue never admits
// NaN, so no measurement can be mistaken for it.
func emptySlot(v float64) bool { return math.IsNaN(v) }

// unissued returns the first empty slot at or past next, len(obs) when none.
// Reports fill only issued slots, so in a round without reissue that is next
// itself; the cursor skips what it passes, keeping later calls O(1).
func (c *candidate) unissued() int {
	for c.next < len(c.obs) && !emptySlot(c.obs[c.next]) {
		c.next++
	}
	return c.next
}

// firstEmpty returns the candidate's first empty slot, len(obs) when full.
func (c *candidate) firstEmpty() int {
	for j, v := range c.obs {
		if emptySlot(v) {
			return j
		}
	}
	return len(c.obs)
}

// session is one application's tuning state. Everything above mu is
// immutable after newSession (the algorithm itself is mutated only by the
// engine goroutine); everything from mu to stepMu is guarded by mu — the
// lockdiscipline analyzer enforces that split. The engine goroutine (run)
// runs only while a caller holds stepMu and waits in step for it to publish
// its next batch or exit. Its events are recorded on that caller's behalf,
// so a recorder must not call back into Stop or Checkpoint.
type session struct {
	name     string
	sp       *space.Space
	est      sample.Estimator
	alg      core.Algorithm
	opts     ServerOptions
	db       *measuredb.Store // nil when no measurement database attached
	rec      event.Recorder   // never nil (OrNop); safe for concurrent use
	restored bool             // skip Init: the algorithm state came from a checkpoint
	// step sends a retired batch's values on resume, which stop closes; the
	// engine signals each published batch on parked, closed when it exits.
	// They alternate strictly, so every send finds a one-slot buffer empty.
	resume chan []float64
	parked chan struct{}

	mu sync.Mutex //paralint:lockrank 30
	// cands is the outstanding batch in submission order, empty when none is
	// outstanding. Its slot tags run consecutively from cands[0].tag, K per
	// candidate, up to nextTag, so a tag resolves by division. cands and
	// slots, the buffer behind every candidate's K sample slots, are reused
	// from batch to batch and dropped when the engine exits with none
	// outstanding.
	cands    []candidate
	slots    []float64
	missing  int // candidates in cands with an empty slot
	batchObs int // measurements accepted for the current batch
	rrNext   int // round-robin cursor for batched fetchN dispatch
	nextTag  uint64
	// deadline closes the batch's progress window; lastProgress is batchObs
	// when it opened, and stale counts windows that closed without progress.
	deadline     time.Time
	lastProgress int
	stale        int
	converged    bool
	best         space.Point
	bestVal      float64
	worstObs     float64 // largest valid measurement seen; degradation stand-in
	haveWorst    bool
	runErr       error
	stopped      bool
	lastUsed     time.Time

	// stepMu serialises step, stop and Checkpoint: unheld, the engine is
	// parked or gone. It is last: lockdiscipline reads fields after mu as mu's.
	stepMu sync.Mutex //paralint:lockrank 25
}

func (srv *Server) newSession(name string, sp *space.Space, alg core.Algorithm, restored bool) *session {
	s := &session{
		name:     name,
		sp:       sp,
		est:      srv.opts.Estimator,
		alg:      alg,
		opts:     srv.opts,
		db:       srv.opts.DB,
		rec:      event.OrNop(srv.opts.Recorder),
		nextTag:  1,
		best:     sp.Center(),
		lastUsed: srv.opts.Clock.Now(),
		restored: restored,
		resume:   make(chan []float64, 1),
		parked:   make(chan struct{}, 1),
	}
	return s
}

// Register creates (or returns) the named session over the given parameters
// and steps its optimiser to its first batch (or, fully warm, convergence)
// before returning. Re-registering with the same name joins the existing
// session; its space must match. A registration over the same parameter
// list as the last one reuses its space (internedSpace). The registered
// event is emitted only after the shard lock is released (shardMutateErr
// owns that contract).
func (srv *Server) Register(name string, params []space.Parameter) error {
	_, err := srv.register(name, params)
	return err
}

// register is Register returning the session it created or joined.
func (srv *Server) register(name string, params []space.Parameter) (*session, error) {
	if name == "" {
		return nil, errors.New("harmony: session name required")
	}
	var sp *space.Space
	if last := srv.lastSpace.Load(); last != nil && space.SameParams(last.params, params) {
		sp = last.sp
	}
	interned := sp != nil
	if !interned {
		var err error
		if sp, err = space.New(params...); err != nil {
			return nil, err
		}
	}
	var joined, fresh *session
	err := srv.shardMutateErr(name, func(sh *sessionShard) ([]event.Event, error) {
		if s, ok := sh.sessions[name]; ok {
			// Joining: verify the space matches.
			if sp != s.sp && sp.String() != s.sp.String() {
				return nil, fmt.Errorf("harmony: session %q already registered with different parameters", name)
			}
			joined = s
			return nil, nil
		}
		alg, err := srv.newAlgorithm(sp, interned)
		if err != nil {
			return nil, err
		}
		s := srv.newSession(name, sp, alg, false)
		if err := srv.startLocked(sh, s); err != nil {
			return nil, err
		}
		fresh = s
		return []event.Event{event.Session{Session: name, Phase: "registered", Detail: alg.String()}}, nil
	})
	if fresh != nil {
		if !interned {
			// The caller may reuse its list, so the interned copy is deep.
			own := slices.Clone(params)
			for i := range own {
				own[i].Values = slices.Clone(own[i].Values)
			}
			srv.lastSpace.Store(&internedSpace{params: own, sp: sp})
		}
		fresh.step(nil)
		return fresh, err
	}
	return joined, err
}

// newAlgorithm binds the measurement database, if any, to sp and builds a
// session's optimiser over it. A space interned in srv.lastSpace was bound
// before, and a store's binding never changes, so bound skips the bind.
func (srv *Server) newAlgorithm(sp *space.Space, bound bool) (core.Algorithm, error) {
	if srv.opts.DB != nil && !bound {
		if err := srv.opts.DB.BindSpace(sp.String()); err != nil {
			return nil, err
		}
	}
	return srv.opts.NewAlgorithm(sp)
}

// startLocked inserts s into its shard and starts its engine goroutine,
// which waits for the first step. Caller holds the shard lock. It refuses
// once Close has begun: Close stops the sessions it finds in the shards, so
// one a still-connected client registers after that would never be joined.
func (srv *Server) startLocked(sh *sessionShard, s *session) error {
	if srv.closed.Load() {
		return errServerClosed
	}
	sh.sessions[s.name] = s
	go s.run()
	return nil
}

// sweepPeriod is the sweeper's tick: a quarter of the shorter enabled
// window, at least 1ms; 0 when neither idle expiry nor deadlines are on.
func sweepPeriod(o ServerOptions) time.Duration {
	w := o.IdleTimeout
	if w <= 0 || (o.MeasurementTimeout > 0 && o.MeasurementTimeout < w) {
		w = o.MeasurementTimeout
	}
	if w <= 0 {
		return 0
	}
	return max(w/4, time.Millisecond)
}

// sweep is the server's one background goroutine: every period on the
// server Clock it applies idle expiry and the batch deadline to each
// session, until Close.
func (srv *Server) sweep(ctx context.Context, period time.Duration) {
	defer srv.sweeping.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-srv.opts.Clock.After(period):
		}
		now := srv.opts.Clock.Now()
		for _, name := range srv.Sessions() {
			if s := srv.lookup(name); s != nil {
				srv.sweepSession(s, now)
			}
		}
	}
}

// sweepSession applies one sweep at now to s. A session idle past
// IdleTimeout is removed and stopped; otherwise a batch the deadline
// force-completes is stepped here.
func (srv *Server) sweepSession(s *session, now time.Time) {
	s.mu.Lock()
	idle := srv.opts.IdleTimeout > 0 && now.Sub(s.lastUsed) >= srv.opts.IdleTimeout
	var vals []float64
	if !idle {
		vals = s.deadlineLocked(now)
	}
	s.mu.Unlock()
	if idle {
		srv.shardMutate(s.name, func(sh *sessionShard) []event.Event {
			if sh.sessions[s.name] != s {
				// Already expired and re-registered; the replacement owns
				// the table slot.
				return nil
			}
			delete(sh.sessions, s.name)
			return []event.Event{event.Session{Session: s.name, Phase: "expired"}}
		})
		s.stop()
		return
	}
	if vals != nil {
		s.rec.Record(event.Session{Session: s.name, Phase: "batch_degraded"})
		s.step(vals)
	}
}

// deadlineLocked applies the progress deadline at now to the outstanding
// batch: a window with progress is extended, a stale one reissues the batch
// (a replacement client picks the starved candidates up), and past
// MaxReissues it force-completes, returning the values. Caller holds s.mu.
func (s *session) deadlineLocked(now time.Time) []float64 {
	timeout := s.opts.MeasurementTimeout
	if timeout <= 0 || len(s.cands) == 0 || s.stopped || now.Before(s.deadline) {
		return nil
	}
	s.deadline = now.Add(timeout)
	if s.batchObs > s.lastProgress {
		s.lastProgress, s.stale = s.batchObs, 0
		return nil
	}
	s.stale++
	if s.stale <= s.opts.MaxReissues {
		for i := range s.cands {
			s.cands[i].next = 0
		}
		return nil
	}
	// Deadline exhausted: score permanently lost candidates at the worst
	// known value so rank ordering proceeds instead of blocking (GSS
	// tolerates a pessimistic stand-in).
	return s.forceCompleteLocked()
}

// run is the engine goroutine. It waits for the first step, then drives the
// optimiser through the shared engine until convergence, an error or Stop,
// parking in Eval between batches.
func (s *session) run() {
	defer close(s.parked)
	var stats core.EngineStats
	var err error
	if _, ok := <-s.resume; ok {
		eng := &core.Engine{
			Alg:      s.alg,
			Ev:       s.newEvaluator(),
			Rec:      s.rec,
			Session:  s.name,
			SkipInit: s.restored,
		}
		stats, err = eng.Run()
	}
	s.mu.Lock()
	if err != nil && !s.stopped {
		s.runErr = err
	}
	if best, val := s.alg.Best(); best != nil {
		s.best, s.bestVal = best, val
	}
	s.converged = true
	// The engine publishes no further batch: drop the batch storage unless
	// a stop left a batch outstanding, whose late reports are still stored.
	if len(s.cands) == 0 {
		s.cands, s.slots = nil, nil
	}
	stopped := s.stopped
	s.mu.Unlock()
	if !event.Active(s.rec) {
		return
	}
	if stats.Converged {
		s.rec.Record(event.Session{Session: s.name, Phase: "converged"})
	} else if stopped {
		s.rec.Record(event.Session{Session: s.name, Phase: "stopped"})
	}
}

// step resumes the parked engine with the retired batch's values (nil
// starts it) and returns once the engine has published its next batch or
// exited. A stopped session's engine is gone, and step does nothing.
func (s *session) step(vals []float64) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.mu.Lock()
	stopped := s.stopped
	s.mu.Unlock()
	if stopped {
		return
	}
	s.resume <- vals
	<-s.parked
}

// newEvaluator builds the engine's evaluator: the session itself, behind
// the measurement database's Memo when one is attached, so candidates the
// store already resolves never reach a client — with a fully warm store a
// batch costs zero client round trips.
func (s *session) newEvaluator() core.Evaluator {
	if s.db == nil {
		return s
	}
	memo := measuredb.NewMemo(s, s.db, s.est, s.rec, nil)
	memo.Session, memo.Cache = s.name, s.opts.Cache
	return memo
}

// Eval publishes points as the outstanding batch of fetchable candidates,
// then parks until step hands back their values. It runs on the engine
// goroutine; a stop ends it with an error.
func (s *session) Eval(points []space.Point) ([]float64, error) {
	if len(points) == 0 {
		return nil, nil // nothing to measure, so nothing to publish
	}
	if !s.publish(points) {
		return nil, errSessionStopped
	}
	if event.Active(s.rec) {
		s.rec.Record(event.Session{
			Session: s.name, Phase: "batch_proposed",
			Detail: strconv.Itoa(len(points)) + " candidates",
		})
	}
	s.parked <- struct{}{}
	vals, ok := <-s.resume
	if !ok {
		return nil, errSessionStopped
	}
	return vals, nil
}

// errSessionStopped ends an Eval that a stop interrupts.
var errSessionStopped = errors.New("harmony: session stopped")

// publish makes points the outstanding batch, every sample slot empty,
// unless the session is stopped; it reports whether it did. The candidates
// and their sample slots reuse the session's storage, so a batch allocates
// only the slab its points are copied onto: a fresh one, because grants
// handed out for a retired batch still alias its points.
func (s *session) publish(points []space.Point) bool {
	n := 0
	for _, p := range points {
		n += len(p)
	}
	slab := make([]float64, n)
	k := s.est.K()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return false
	}
	s.cands = slices.Grow(s.cands[:0], len(points))[:len(points)]
	s.slots = slices.Grow(s.slots[:0], len(points)*k)[:len(points)*k]
	for i := range s.slots {
		s.slots[i] = math.NaN()
	}
	at := 0
	for i, p := range points {
		pt := slab[at : at+len(p) : at+len(p)]
		copy(pt, p)
		at += len(p)
		s.cands[i] = candidate{point: pt, tag: s.nextTag, obs: s.slots[i*k : (i+1)*k : (i+1)*k]}
		s.nextTag += uint64(k)
	}
	s.missing = len(points)
	s.batchObs = 0
	s.rrNext = 0
	s.deadline, s.lastProgress, s.stale = s.opts.Clock.Now().Add(s.opts.MeasurementTimeout), 0, 0
	// Keep the session's public best in sync with the optimiser.
	if best, val := s.alg.Best(); best != nil {
		s.best, s.bestVal = best, val
	}
	return true
}

// forceCompleteLocked reduces the current batch with whatever measurements
// arrived, substituting the worst known value for candidates with none.
// Caller holds s.mu and has checked that a batch is outstanding.
func (s *session) forceCompleteLocked() []float64 {
	vals := make([]float64, len(s.cands))
	stand := s.worstObs
	if !s.haveWorst {
		// No valid measurement has ever arrived; any consistent stand-in
		// keeps the optimiser terminating rather than wedged.
		stand = 1
	}
	for i := range s.cands {
		c := &s.cands[i]
		if c.filled == 0 {
			vals[i] = stand
			continue
		}
		// The batch retires here, so its slots are compacted in place: the
		// filled ones, in slot order.
		obs := c.obs[:0]
		for _, v := range c.obs {
			if !emptySlot(v) {
				obs = append(obs, v)
			}
		}
		vals[i] = s.est.Estimate(obs)
	}
	s.endBatchLocked()
	return vals
}

// endBatchLocked retires the outstanding batch: reports for its tags are
// acknowledged and ignored from now on. Its storage stays for the next batch.
func (s *session) endBatchLocked() {
	s.cands = s.cands[:0]
	s.missing = 0
}

// slotLocked resolves a tag of the outstanding batch to its candidate and
// slot; nil for tag 0, tags of retired batches and tags never issued.
func (s *session) slotLocked(tag uint64) (*candidate, int) {
	if len(s.cands) == 0 || tag < s.cands[0].tag || tag >= s.nextTag {
		return nil, 0
	}
	off, k := tag-s.cands[0].tag, uint64(len(s.cands[0].obs))
	return &s.cands[off/k], int(off % k)
}

// FetchResult is a unit of work for a client; a fetchn response carries a
// list of them.
type FetchResult struct {
	// Point is the configuration to run next.
	Point space.Point
	// Tag names the sample slot a Report fills: one (candidate, sample)
	// of the outstanding batch. 0 means the point is the best-known
	// configuration and needs no measurement report.
	Tag uint64
	// Converged reports whether tuning has finished.
	Converged bool
}

// Fetch returns the next configuration for a client of the named session:
// the one result of FetchN(name, 1), so single-op and batched clients share
// one grant rule. While a candidate batch is outstanding it hands out the
// next candidate with an unissued sample (re-issuing unmeasured candidates
// once every sample is out, so a lost client cannot stall tuning);
// otherwise it returns the best-known configuration with Tag 0.
func (srv *Server) Fetch(name string) (FetchResult, error) {
	out, err := srv.FetchN(name, 1)
	if err != nil {
		return FetchResult{}, err
	}
	return out[0], nil
}

// Report records a measurement into the tagged sample slot. Reports for
// tag 0 (measurements of the production configuration) and for tags of
// retired batches are accepted and ignored, and a resend of a filled slot's
// value is accepted without being counted twice. Non-finite or negative
// values are rejected with ErrInvalidValue. When every slot of the current
// batch is filled, the batch is reduced with the estimator and the optimiser
// resumes.
func (srv *Server) Report(name string, tag uint64, value float64) error {
	s, err := srv.session(name)
	if err != nil {
		return err
	}
	_, err = s.report([]ReportItem{{Tag: tag, Value: value}})
	return err
}

// storedObs is one accepted measurement bound for the measurement database.
type storedObs struct {
	p space.Point
	v float64
}

// report applies items in order under one hold of s.mu and classifies each;
// it is shared by the single-report path and batched ReportN frames. The
// returned error is the last failed item's, which is a single report's
// answer. Store writes and the step on a completed batch happen after the
// lock is released, in that order, so the next batch's warm-start lookups
// see every measurement of this one and exist before report returns.
func (s *session) report(items []ReportItem) (BatchReportResult, error) {
	var (
		res    BatchReportResult
		last   error
		stored []storedObs
		vals   []float64
	)
	if s.db != nil {
		stored = make([]storedObs, 0, len(items))
	}
	now := s.opts.Clock.Now()
	s.mu.Lock()
	for i := range items {
		it := &items[i]
		c, err := s.applyLocked(it, now)
		if err != nil {
			res.Rejected++
			last = err
		} else {
			res.Accepted++
		}
		if c == nil {
			continue
		}
		if s.db != nil {
			stored = append(stored, storedObs{c.point, it.Value})
		}
		if s.missing == 0 && len(s.cands) > 0 {
			vals = s.completeLocked()
		}
	}
	s.mu.Unlock()
	for _, o := range stored {
		s.db.Observe(o.p, o.v)
	}
	if vals != nil {
		if event.Active(s.rec) {
			s.rec.Record(event.Session{Session: s.name, Phase: "batch_complete"})
		}
		s.step(vals)
	}
	return res, last
}

// applyLocked records one measurement arriving at now into its slot and
// returns the candidate it was recorded for; nil when nothing was recorded.
// Caller holds s.mu. The tag alone classifies the report:
//   - an empty slot is filled;
//   - a filled slot holding the bit-identical value takes a resend, which
//     records nothing;
//   - a filled slot holding another value takes a surplus report, which is
//     recorded for the store but never estimated;
//   - tag 0 and tags of retired batches record nothing;
//   - a tag never issued is an error, as is an invalid value.
func (s *session) applyLocked(it *ReportItem, now time.Time) (*candidate, error) {
	if !fault.ValidValue(it.Value) {
		return nil, fmt.Errorf("%w: %g", ErrInvalidValue, it.Value)
	}
	if it.Tag >= s.nextTag {
		return nil, fmt.Errorf("harmony: tag %d was never issued", it.Tag)
	}
	if it.Tag == 0 {
		return nil, nil
	}
	s.lastUsed = now
	c, j := s.slotLocked(it.Tag)
	if c == nil {
		return nil, nil
	}
	switch slot := &c.obs[j]; {
	case emptySlot(*slot):
		*slot = it.Value
		if c.filled++; c.filled == len(c.obs) {
			s.missing--
		}
	case math.Float64bits(*slot) == math.Float64bits(it.Value):
		return nil, nil
	}
	s.batchObs++
	if !s.haveWorst || it.Value > s.worstObs {
		s.worstObs, s.haveWorst = it.Value, true
	}
	return c, nil
}

// completeLocked reduces the fully measured batch with the estimator and
// retires it, returning the values for the engine.
func (s *session) completeLocked() []float64 {
	vals := make([]float64, len(s.cands))
	for i := range s.cands {
		vals[i] = s.est.Estimate(s.cands[i].obs)
	}
	s.endBatchLocked()
	return vals
}

// Best returns the best-known configuration and its estimate.
func (srv *Server) Best(name string) (space.Point, float64, bool, error) {
	s, err := srv.session(name)
	if err != nil {
		return nil, 0, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best.Clone(), s.bestVal, s.converged, nil
}

// stop shuts the session down and returns once its engine goroutine has
// exited; idempotent.
func (s *session) stop() {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.mu.Lock()
	already := s.stopped
	s.stopped = true
	s.mu.Unlock()
	if !already {
		close(s.resume)
		<-s.parked
	}
}

// Stop shuts a session down and returns once its optimiser has exited;
// outstanding Fetch work is abandoned.
func (srv *Server) Stop(name string) error {
	s, err := srv.session(name)
	if err != nil {
		return err
	}
	s.stop()
	return nil
}

// Close stops the sweeper and every session, and returns once all their
// goroutines have exited.
func (srv *Server) Close() {
	srv.closed.Store(true)
	srv.stopSweep()
	srv.sweeping.Wait()
	for _, n := range srv.Sessions() {
		_ = srv.Stop(n)
	}
}

// sessionCheckpoint is the serialised state of one tuning session. The
// algorithm snapshot comes from core.Snapshotter, so the simplex survives a
// server restart; the in-flight candidate batch is intentionally not
// serialised — the restored optimiser re-proposes it deterministically.
type sessionCheckpoint struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	Params    []wireParam     `json:"params"`
	Alg       json.RawMessage `json:"alg"`
	Best      []float64       `json:"best,omitempty"`
	BestVal   float64         `json:"best_value"`
	WorstObs  float64         `json:"worst_obs"`
	HaveWorst bool            `json:"have_worst"`
	NextTag   uint64          `json:"next_tag"`
	Converged bool            `json:"converged"`
}

// Checkpoint serialises the named session — parameter space, optimiser
// simplex, best point, tag counter — to JSON. It is safe to call mid-tuning:
// it holds the session's step lock, so the optimiser is parked between
// batches or has exited, and the snapshot is always a consistent
// between-steps state. Restore it into a fresh server with RestoreSession.
func (srv *Server) Checkpoint(name string) ([]byte, error) {
	s, err := srv.session(name)
	if err != nil {
		return nil, err
	}
	snapper, ok := s.alg.(core.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("harmony: algorithm %v does not support snapshots", s.alg)
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	data, err := snapper.Snapshot()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cp := sessionCheckpoint{
		Version:   1,
		Name:      s.name,
		Params:    toWireParams(spaceParams(s.sp)),
		Alg:       data,
		Best:      append([]float64(nil), s.best...),
		BestVal:   s.bestVal,
		WorstObs:  s.worstObs,
		HaveWorst: s.haveWorst,
		NextTag:   s.nextTag,
		Converged: s.converged,
	}
	s.mu.Unlock()
	return json.Marshal(&cp)
}

// CheckpointAll serialises every registered session. Sessions still inside
// their initial simplex evaluation have no search state worth preserving and
// are skipped rather than failing the whole set (relevant for a periodic
// checkpointer that may fire moments after a session registers).
func (srv *Server) CheckpointAll() ([]byte, error) {
	var cps []json.RawMessage
	for _, name := range srv.Sessions() {
		cp, err := srv.Checkpoint(name)
		if errors.Is(err, core.ErrNotInitialised) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("harmony: checkpoint %q: %w", name, err)
		}
		cps = append(cps, cp)
	}
	return json.Marshal(cps)
}

// RestoreSession recreates a session from a Checkpoint blob: the optimiser is
// rebuilt via the server's algorithm factory, its search state restored from
// the snapshot, and tuning resumes exactly where the checkpoint was taken —
// the simplex is not reset, and stepped to its next batch before this
// returns. The session name must not already exist.
func (srv *Server) RestoreSession(data []byte) error {
	var cp sessionCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("harmony: bad checkpoint: %w", err)
	}
	if cp.Name == "" {
		return errors.New("harmony: checkpoint has no session name")
	}
	params, err := fromWireParams(cp.Params)
	if err != nil {
		return err
	}
	sp, err := space.New(params...)
	if err != nil {
		return err
	}
	alg, err := srv.newAlgorithm(sp, false)
	if err != nil {
		return err
	}
	snapper, ok := alg.(core.Snapshotter)
	if !ok {
		return fmt.Errorf("harmony: algorithm %v does not support snapshots", alg)
	}
	if err := snapper.Restore(cp.Alg); err != nil {
		return err
	}
	var fresh *session
	err = srv.shardMutateErr(cp.Name, func(sh *sessionShard) ([]event.Event, error) {
		if _, exists := sh.sessions[cp.Name]; exists {
			return nil, fmt.Errorf("harmony: session %q already exists", cp.Name)
		}
		s := srv.newSession(cp.Name, sp, alg, true)
		s.nextTag = cp.NextTag
		if s.nextTag == 0 {
			s.nextTag = 1
		}
		s.worstObs, s.haveWorst = cp.WorstObs, cp.HaveWorst
		if len(cp.Best) > 0 {
			s.best, s.bestVal = space.Point(cp.Best).Clone(), cp.BestVal
		}
		if best, val := alg.Best(); best != nil {
			s.best, s.bestVal = best, val
		}
		if err := srv.startLocked(sh, s); err != nil {
			return nil, err
		}
		fresh = s
		return []event.Event{event.Session{Session: cp.Name, Phase: "restored", Detail: alg.String()}}, nil
	})
	if fresh != nil {
		fresh.step(nil)
	}
	return err
}

// RestoreAll recreates every session in a CheckpointAll blob.
func (srv *Server) RestoreAll(data []byte) error {
	var cps []json.RawMessage
	if err := json.Unmarshal(data, &cps); err != nil {
		return fmt.Errorf("harmony: bad checkpoint set: %w", err)
	}
	for _, cp := range cps {
		if err := srv.RestoreSession(cp); err != nil {
			return err
		}
	}
	return nil
}

// WriteCheckpointFile writes CheckpointAll to path atomically and durably:
// to a temporary sibling, synced, then renamed over path, and the directory
// synced after the rename. A crash or power loss mid-write leaves path
// naming either the previous checkpoint or this one, never a truncated file.
func (srv *Server) WriteCheckpointFile(path string) error {
	data, err := srv.CheckpointAll()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := errors.Join(f.Sync(), f.Close()); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	if err := os.Rename(tmp, path); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// RestoreFile restores every session in the checkpoint file at path, as
// WriteCheckpointFile leaves it. A missing file restores nothing and is not
// an error; found reports whether the file existed.
func (srv *Server) RestoreFile(path string) (found bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, srv.RestoreAll(data)
}

// spaceParams recovers the parameter list from a space.
func spaceParams(sp *space.Space) []space.Parameter {
	out := make([]space.Parameter, sp.Dim())
	for i := range out {
		out[i] = sp.Param(i)
	}
	return out
}

// SessionStats summarises one session for monitoring.
type SessionStats struct {
	Name      string
	Converged bool
	Best      []float64
	BestValue float64
	Pending   int // candidates awaiting measurements
	NextTag   uint64
}

// Stats returns a monitoring snapshot of the named session.
func (srv *Server) Stats(name string) (SessionStats, error) {
	s, err := srv.session(name)
	if err != nil {
		return SessionStats{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Name:      s.name,
		Converged: s.converged,
		Best:      append([]float64(nil), s.best...),
		BestValue: s.bestVal,
		Pending:   s.missing,
		NextTag:   s.nextTag,
	}, nil
}
