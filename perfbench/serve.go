package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paratune/internal/core"
	"paratune/internal/dist"
	"paratune/internal/feddb"
	"paratune/internal/harmony"
	"paratune/internal/measuredb"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// Client-side load shape shared by both serve workloads.
const (
	serveClients = 2  // connections; the host has two cores
	liveSessions = 32 // sessions each connection keeps in flight
	fetchBatch   = 16 // FetchN size
	samplesK     = 3  // the server's default min-of-3

	fillSessions = 256 // serve-warm set-up: sessions tuned to fill the store
	maxProbes    = 64  // serve-warm set-up: bound on warm probe sessions
)

// Session-index bases keep the set-up sessions' noise streams disjoint from
// each other and from the measured ones.
const (
	fillBase  = 1 << 30
	probeBase = 1 << 31
)

// serveOpts selects one serve pass.
type serveOpts struct {
	seed     int64
	sessions int
	warm     bool
	tr       *Tracer // nil runs untraced
	work     string  // directory for the store
}

// servePass is what one pass of a serve workload measured.
type servePass struct {
	setup, wall time.Duration
	loadStats
	digest             uint64
	sameBest           bool // every session reached the same best point
	obsBefore          int
	obsAfter           int
	lookups, cacheHits uint64
	openMS             float64
	allocMB, heapMB    float64
	wire               wireCounts
}

// loadStats is the client side of a pass, summed over connections.
type loadStats struct {
	converged int
	useful    int // tagged measurements the server accepted
	sent      int // tagged measurements sent
	idle      int // tag-0 fetches before convergence
	refused   int
	rejected  int
	calls     int
	regRTT    []float64 // µs
	fetchRTT  []float64
	reportRTT []float64
	converge  []float64 // ms, Register to the FetchN reporting convergence
	best      map[int]space.Point
}

func (l *loadStats) merge(o loadStats) {
	l.converged += o.converged
	l.useful += o.useful
	l.sent += o.sent
	l.idle += o.idle
	l.refused += o.refused
	l.rejected += o.rejected
	l.calls += o.calls
	l.regRTT = append(l.regRTT, o.regRTT...)
	l.fetchRTT = append(l.fetchRTT, o.fetchRTT...)
	l.reportRTT = append(l.reportRTT, o.reportRTT...)
	l.converge = append(l.converge, o.converge...)
	if l.best == nil {
		l.best = make(map[int]space.Point)
	}
	for k, v := range o.best {
		l.best[k] = v
	}
}

func (l *loadStats) rtts() []float64 {
	all := append([]float64(nil), l.regRTT...)
	all = append(all, l.fetchRTT...)
	return append(all, l.reportRTT...)
}

// failures counts refused and rejected measurements; a failed call aborts
// the pass instead.
func (l *loadStats) failures() int { return l.refused + l.rejected }

// sessionSeed derives a session's measurement-noise seed from the run seed
// and the session index, so a session's trajectory does not depend on how
// sessions interleave.
func sessionSeed(seed int64, idx int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x)
}

// server is an in-process harmony.Server served on loopback TCP.
type server struct {
	srv      *harmony.Server
	l        net.Listener
	serveErr chan error
	addr     string
	tr       *Tracer
	pairs    *pairTable
	wire     *wireStats
}

func startServer(opts harmony.ServerOptions, tr *Tracer) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: harmony.NewServer(opts), l: l, serveErr: make(chan error, 1), addr: l.Addr().String(), tr: tr}
	var served net.Listener = l
	if tr != nil {
		s.pairs = &pairTable{m: make(map[string]*connPair)}
		s.wire = &wireStats{}
		served = &tracedListener{Listener: l, tr: tr, pairs: s.pairs, stats: s.wire}
	}
	go func() { s.serveErr <- harmony.Serve(served, s.srv) }()
	return s, nil
}

// dial connects one PHWIRE1 client; traced servers get a wrapped conn.
func (s *server) dial(seed int64) (*harmony.Client, *clientConn, error) {
	opts := harmony.DialOptions{Wire: harmony.WireBinary, Seed: seed}
	var cc *clientConn
	if s.tr != nil {
		opts.DialFunc = func() (net.Conn, error) {
			c, err := net.Dial("tcp", s.addr)
			if err != nil {
				return nil, err
			}
			cc = &clientConn{Conn: c, tr: s.tr, pair: s.pairs.add(c.LocalAddr().String())}
			return cc, nil
		}
	}
	c, err := harmony.DialWith(s.addr, opts)
	return c, cc, err
}

// stop closes the listener, waits for Serve and its connections to drain,
// and stops every session.
func (s *server) stop() error {
	err := s.l.Close()
	if serr := <-s.serveErr; serr != nil && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// loader runs the closed client loop on one connection.
type loader struct {
	c      *harmony.Client
	cc     *clientConn // nil when untraced
	tr     *Tracer
	gs2    *objective.DB
	model  noise.Model
	params []space.Parameter
	seed   int64
	prefix string
	next   func() (int, bool)
	rt     int64
	st     loadStats
	// kept, when non-nil, collects every measurement sent, per session.
	kept map[int][]observation
}

type observation struct {
	p space.Point
	v float64
}

type liveSession struct {
	idx   int
	name  string
	rng   *rand.Rand
	start time.Time
}

// call times one client round trip. Traced, it opens the request span the
// wire wrappers hang their spans under, and closes it with the client's
// encode and decode spans.
func (d *loader) call(name string, rtts *[]float64, fn func() error) error {
	sp := noParent
	var t0 int64
	if d.tr != nil {
		d.rt = d.tr.NextID()
		t0 = d.tr.Now()
		sp = d.tr.Add(name, t0, t0, noParent, d.rt)
		d.cc.startRT(sp, d.rt)
	}
	start := time.Now()
	err := fn()
	*rtts = append(*rtts, float64(time.Since(start))/1e3)
	d.st.calls++
	if d.tr != nil {
		t1 := d.tr.Now()
		d.tr.End(sp)
		if d.cc.writeStart != 0 && d.cc.readEnd != 0 {
			d.tr.Add("client.encode", t0, d.cc.writeStart, sp, d.rt)
			d.tr.Add("client.decode", d.cc.readEnd, t1, sp, d.rt)
		}
		d.cc.startRT(noParent, 0)
	}
	return err
}

// open registers the next session, or returns nil when none is left.
func (d *loader) open() (*liveSession, error) {
	idx, ok := d.next()
	if !ok {
		return nil, nil
	}
	s := &liveSession{
		idx:   idx,
		name:  fmt.Sprintf("%s%07d", d.prefix, idx),
		rng:   dist.NewRNG(sessionSeed(d.seed, idx)),
		start: time.Now(),
	}
	err := d.call("client.register", &d.st.regRTT, func() error { return d.c.Register(s.name, d.params) })
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", s.name, err)
	}
	return s, nil
}

// run keeps up to slots sessions live, fetching and reporting round-robin,
// and registers a fresh session whenever one converges, until next runs dry
// and every session has converged.
func (d *loader) run(slots int) error {
	d.st.best = make(map[int]space.Point)
	live := make([]*liveSession, 0, slots)
	for len(live) < slots {
		s, err := d.open()
		if err != nil {
			return err
		}
		if s == nil {
			break
		}
		live = append(live, s)
	}
	items := make([]harmony.ReportItem, 0, fetchBatch)
	for len(live) > 0 {
		for i := 0; i < len(live); {
			s := live[i]
			var frs []harmony.FetchResult
			err := d.call("client.fetchn", &d.st.fetchRTT, func() (err error) {
				frs, err = d.c.FetchN(s.name, fetchBatch)
				return err
			})
			if err != nil {
				return fmt.Errorf("fetchn %s: %w", s.name, err)
			}
			if len(frs) == 1 && frs[0].Tag == 0 {
				if !frs[0].Converged {
					d.st.idle++
					i++
					continue
				}
				d.st.converged++
				d.st.converge = append(d.st.converge, float64(time.Since(s.start))/1e6)
				d.st.best[s.idx] = frs[0].Point
				ns, err := d.open()
				if err != nil {
					return err
				}
				if ns != nil {
					live[i] = ns
					i++
				} else {
					live = append(live[:i], live[i+1:]...)
				}
				continue
			}
			items = items[:0]
			for _, fr := range frs {
				if fr.Tag == 0 {
					continue
				}
				v := d.model.Perturb(d.gs2.Eval(fr.Point), s.rng)
				items = append(items, harmony.ReportItem{Tag: fr.Tag, Value: v})
				if d.kept != nil {
					d.kept[s.idx] = append(d.kept[s.idx], observation{fr.Point, v})
				}
			}
			d.st.sent += len(items)
			var br harmony.BatchReportResult
			err = d.call("client.reportn", &d.st.reportRTT, func() (err error) {
				br, err = d.c.ReportN(s.name, items)
				return err
			})
			if err != nil {
				return fmt.Errorf("reportn %s: %w", s.name, err)
			}
			d.st.useful += br.Accepted
			d.st.refused += br.Refused
			d.st.rejected += br.Rejected
			i++
		}
	}
	return nil
}

// counter hands out session indices [base, base+n) across loaders.
func counter(base, n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := int(next.Add(1)) - 1
		return base + i, i < n
	}
}

// serveInputs is what every pass of a serve workload is built from: the
// surrogate the clients measure (the GS2 surface at fixedSeed), its noise
// model and parameter list.
type serveInputs struct {
	gs2    *objective.DB
	model  noise.Model
	params []space.Parameter
}

func newServeInputs() (serveInputs, error) {
	gs2 := objective.GenerateGS2(objective.GS2Config{Seed: fixedSeed, Coverage: 1})
	model, err := noise.NewIIDPareto(1.7, 0.2)
	if err != nil {
		return serveInputs{}, err
	}
	sp := gs2.Space()
	params := make([]space.Parameter, sp.Dim())
	for i := range params {
		params[i] = sp.Param(i)
	}
	return serveInputs{gs2: gs2, model: model, params: params}, nil
}

func (in serveInputs) loader(c *harmony.Client, cc *clientConn, tr *Tracer, seed int64, prefix string, next func() (int, bool)) *loader {
	return &loader{c: c, cc: cc, tr: tr, gs2: in.gs2, model: in.model, params: in.params, seed: seed, prefix: prefix, next: next}
}

// serverOptions builds the server's options; traced, the algorithm and
// estimator are wrapped in timing spans.
func serverOptions(tr *Tracer) (harmony.ServerOptions, sample.Estimator, error) {
	est, err := sample.NewMinOfK(samplesK)
	if err != nil {
		return harmony.ServerOptions{}, nil, err
	}
	var e sample.Estimator = est
	opts := harmony.ServerOptions{}
	if tr != nil {
		e = &timedEstimator{inner: est, tr: tr, name: "estimator"}
		var ids atomic.Int64
		opts.NewAlgorithm = func(s *space.Space) (core.Algorithm, error) {
			alg, err := core.NewPRO(core.Options{Space: s})
			if err != nil {
				return nil, err
			}
			return newSpanAlg(alg, tr, "session", ids.Add(1), nil), nil
		}
		opts.Estimator = e
	}
	return opts, e, nil
}

// runServePass sets up a server, tunes o.sessions sessions through it from
// serveClients connections, measures, and tears everything down.
func runServePass(o serveOpts) (servePass, error) {
	var p servePass
	t0 := time.Now()
	in, err := newServeInputs()
	if err != nil {
		return p, err
	}
	opts, est, err := serverOptions(o.tr)
	if err != nil {
		return p, err
	}
	var store *measuredb.Store
	var cache *feddb.Cache
	if o.warm {
		dir := filepath.Join(o.work, "warm-store")
		if store, p.openMS, err = fillStore(in, o, dir); err != nil {
			return p, fmt.Errorf("serve-warm set-up: %w", err)
		}
		defer store.Close()
		cache = feddb.NewCache(store, est, samplesK, 0)
		opts.DB = store
		if opts.Estimator == nil {
			opts.Estimator = est
		}
		opts.Cache = cache
		if o.tr != nil {
			opts.Cache = &timedCache{inner: cache, tr: o.tr}
		}
		_, p.obsBefore = store.Stats()
	}
	srv, err := startServer(opts, o.tr)
	if err != nil {
		return p, err
	}
	var loaders []*loader
	next := counter(0, o.sessions)
	for i := 0; i < serveClients; i++ {
		c, cc, err := srv.dial(o.seed + int64(i) + 1)
		if err != nil {
			srv.stop()
			return p, err
		}
		defer c.Close()
		loaders = append(loaders, in.loader(c, cc, o.tr, o.seed, "s", next))
	}
	var hits0 feddb.CacheStats
	if cache != nil {
		hits0 = cache.Stats()
	}
	p.setup = time.Since(t0)

	before := allocatedBytes()
	start := time.Now()
	err = runLoaders(loaders)
	p.wall = time.Since(start)
	p.allocMB = float64(allocatedBytes()-before) / (1 << 20)
	p.heapMB = liveHeapMB()

	for _, d := range loaders {
		p.merge(d.st)
	}
	p.digest, p.sameBest = bestDigest(p.best)
	if cache != nil {
		h := cache.Stats()
		p.cacheHits = h.Hits - hits0.Hits
		p.lookups = p.cacheHits + h.Misses - hits0.Misses
		_, p.obsAfter = store.Stats()
	}
	if srv.wire != nil {
		p.wire = srv.wire.snapshot()
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return p, err
}

// runLoaders runs every loader's closed loop on its own goroutine and waits
// for all of them.
func runLoaders(loaders []*loader) error {
	errs := make([]error, len(loaders))
	var wg sync.WaitGroup
	for i, d := range loaders {
		wg.Add(1)
		go func(i int, d *loader) {
			defer wg.Done()
			errs[i] = d.run(liveSessions)
		}(i, d)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fillStore is serve-warm's set-up. It tunes fillSessions sessions, each
// with its own noise stream, through a server without a store, and records
// their measurements into a fresh on-disk store in session order, so the
// store's observation order, and with it every min-of-K estimate, does not
// depend on how the sessions interleaved. It then runs warm probe sessions
// one at a time against the store, measuring whatever they miss, until one
// converges without a single client measurement: the store is then a fixed
// point that every later warm session replays exactly. Finally it closes the
// store and reopens it, replaying the WAL, for the measured server.
func fillStore(in serveInputs, o serveOpts, dir string) (*measuredb.Store, float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	store, err := measuredb.Open(dir, measuredb.Options{Seed: fixedSeed, Origin: "bench", Space: in.gs2.Space().String()})
	if err != nil {
		return nil, 0, err
	}
	if err := fillCold(in, fixedSeed, store); err != nil {
		store.Close()
		return nil, 0, err
	}
	if err := probeWarm(in, fixedSeed, store); err != nil {
		store.Close()
		return nil, 0, err
	}
	if err := store.Close(); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	store, err = measuredb.Open(dir, measuredb.Options{})
	if err != nil {
		return nil, 0, err
	}
	return store, float64(time.Since(t0)) / 1e6, nil
}

// fillCold tunes the fill sessions through a store-less server and writes
// what they measured into store.
func fillCold(in serveInputs, seed int64, store *measuredb.Store) error {
	srv, err := startServer(harmony.ServerOptions{}, nil)
	if err != nil {
		return err
	}
	next := counter(fillBase, fillSessions)
	loaders := make([]*loader, serveClients)
	for i := range loaders {
		c, _, err := srv.dial(seed + int64(i) + 1)
		if err != nil {
			srv.stop()
			return err
		}
		defer c.Close()
		loaders[i] = in.loader(c, nil, nil, seed, "fill", next)
		loaders[i].kept = make(map[int][]observation)
	}
	err = runLoaders(loaders)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	for idx := fillBase; idx < fillBase+fillSessions; idx++ {
		for _, d := range loaders {
			for _, ob := range d.kept[idx] {
				store.Observe(ob.p, ob.v)
			}
		}
	}
	return store.Err()
}

// probeWarm runs warm sessions one at a time until one needs no client
// measurement.
func probeWarm(in serveInputs, seed int64, store *measuredb.Store) error {
	est, err := sample.NewMinOfK(samplesK)
	if err != nil {
		return err
	}
	srv, err := startServer(harmony.ServerOptions{
		Estimator: est, DB: store, Cache: feddb.NewCache(store, est, samplesK, 0),
	}, nil)
	if err != nil {
		return err
	}
	c, _, err := srv.dial(seed)
	if err != nil {
		srv.stop()
		return err
	}
	defer c.Close()
	for probe := 0; err == nil; probe++ {
		if probe == maxProbes {
			err = fmt.Errorf("store not a fixed point after %d warm probes", maxProbes)
			break
		}
		d := in.loader(c, nil, nil, seed, "probe", counter(probeBase+probe, 1))
		if err = d.run(1); err == nil && d.st.sent == 0 {
			break
		}
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

// bestDigest hashes every session's best point in session order, and
// reports whether all sessions share one best point.
func bestDigest(best map[int]space.Point) (uint64, bool) {
	idx := make([]int, 0, len(best))
	for i := range best {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	h := fnv.New64a()
	same := true
	var b [8]byte
	for _, i := range idx {
		p := best[i]
		if !p.Equal(best[idx[0]]) {
			same = false
		}
		for _, x := range append([]float64{float64(i)}, p...) {
			u := math.Float64bits(x)
			for j := range b {
				b[j] = byte(u >> (8 * j))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64(), same
}
