package main

import (
	"net"
	"sync"
	"sync/atomic"

	"paratune/internal/core"
	"paratune/internal/feddb"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// The traced run observes each layer from outside: a wrapped listener and
// dialer time the wire, a wrapped algorithm times optimiser steps, and
// wrapped estimator, cache and objective time their calls.

// connPair links one client connection with the server side of it, so a
// server span can name the client request it serves. The client stores the
// request span before writing the request; the server loads it after
// reading the request, so the socket orders the two.
type connPair struct {
	rt atomic.Int32
	id atomic.Int64
}

// pairTable finds a client connection's pair from the server's side, keyed
// by the client's local address.
type pairTable struct {
	mu sync.Mutex
	m  map[string]*connPair
}

func (t *pairTable) add(addr string) *connPair {
	p := &connPair{}
	p.rt.Store(noParent)
	t.mu.Lock()
	t.m[addr] = p
	t.mu.Unlock()
	return p
}

func (t *pairTable) get(addr string) *connPair {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[addr]
}

// wireStats counts the server's socket traffic.
type wireStats struct {
	bytesIn, bytesOut, writes atomic.Int64
}

// wireCounts is a wireStats snapshot.
type wireCounts struct {
	bytesIn, bytesOut, writes int64
}

func (w *wireStats) snapshot() wireCounts {
	return wireCounts{bytesIn: w.bytesIn.Load(), bytesOut: w.bytesOut.Load(), writes: w.writes.Load()}
}

type tracedListener struct {
	net.Listener
	tr    *Tracer
	pairs *pairTable
	stats *wireStats
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, l: l}, nil
}

// serverConn is one accepted connection. Read and Write run on the
// server's per-connection goroutine only.
type serverConn struct {
	net.Conn
	l       *tracedListener
	pair    *connPair
	readEnd int64
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.readEnd = c.l.tr.Now()
	c.l.stats.bytesIn.Add(int64(n))
	if c.pair == nil && n > 0 {
		c.pair = c.l.pairs.get(c.RemoteAddr().String())
	}
	return n, err
}

// Write records server.handle, from the read that completed the request to
// the start of the response write, and server.write around the write.
func (c *serverConn) Write(b []byte) (int, error) {
	tr := c.l.tr
	rt, id := noParent, int64(0)
	if c.pair != nil {
		rt, id = c.pair.rt.Load(), c.pair.id.Load()
	}
	t0 := tr.Now()
	n, err := c.Conn.Write(b)
	t1 := tr.Now()
	if rt != noParent {
		tr.Add("server.handle", c.readEnd, t0, rt, id)
		tr.Add("server.write", t0, t1, rt, id)
	}
	c.l.stats.writes.Add(1)
	c.l.stats.bytesOut.Add(int64(n))
	return n, err
}

// clientConn is the conn a traced client dials. It is used only by the
// goroutine driving its harmony.Client.
type clientConn struct {
	net.Conn
	tr         *Tracer
	pair       *connPair
	writeStart int64 // first write of the request in flight
	readEnd    int64 // last read of the response in flight
}

// startRT marks the request span in flight, noParent between requests.
func (c *clientConn) startRT(sp int32, id int64) {
	c.pair.id.Store(id)
	c.pair.rt.Store(sp)
	c.writeStart, c.readEnd = 0, 0
}

func (c *clientConn) Write(b []byte) (int, error) {
	t0 := c.tr.Now()
	n, err := c.Conn.Write(b)
	if rt := c.pair.rt.Load(); rt != noParent {
		if c.writeStart == 0 {
			c.writeStart = t0
		}
		c.tr.Add("client.write", t0, c.tr.Now(), rt, c.pair.id.Load())
	}
	return n, err
}

func (c *clientConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.readEnd = c.tr.Now()
	return n, err
}

// spanAlg wraps a core.Algorithm with spans around Init and Step, and hands
// it an evaluator that spans every batch evaluation inside them. cur, when
// non-nil, holds the evaluation span in progress, for spans the evaluation
// causes on the same goroutine to hang under.
type spanAlg struct {
	inner                core.Algorithm
	tr                   *Tracer
	init, step, evalName string
	id                   int64
	cur                  *int32
}

func newSpanAlg(inner core.Algorithm, tr *Tracer, prefix string, id int64, cur *int32) *spanAlg {
	return &spanAlg{inner: inner, tr: tr, init: prefix + ".init", step: prefix + ".step", evalName: prefix + ".eval", id: id, cur: cur}
}

func (a *spanAlg) Init(ev core.Evaluator) error {
	sp := a.tr.Begin(a.init, noParent, a.id)
	defer a.tr.End(sp)
	return a.inner.Init(&spanEval{inner: ev, a: a, parent: sp})
}

func (a *spanAlg) Step(ev core.Evaluator) (core.StepInfo, error) {
	sp := a.tr.Begin(a.step, noParent, a.id)
	defer a.tr.End(sp)
	return a.inner.Step(&spanEval{inner: ev, a: a, parent: sp})
}

func (a *spanAlg) Best() (space.Point, float64) { return a.inner.Best() }
func (a *spanAlg) Converged() bool              { return a.inner.Converged() }
func (a *spanAlg) String() string               { return a.inner.String() }

type spanEval struct {
	inner  core.Evaluator
	a      *spanAlg
	parent int32
}

func (e *spanEval) Eval(points []space.Point) ([]float64, error) {
	sp := e.a.tr.Begin(e.a.evalName, e.parent, e.a.id)
	defer e.a.tr.End(sp)
	if cur := e.a.cur; cur != nil {
		prev := *cur
		*cur = sp
		defer func() { *cur = prev }()
	}
	return e.inner.Eval(points)
}

// timedEstimator spans every estimate; parent, when non-nil, names the span
// and id the estimate belongs to.
type timedEstimator struct {
	inner  sample.Estimator
	tr     *Tracer
	name   string
	parent func() (int32, int64)
}

func (e *timedEstimator) K() int { return e.inner.K() }

func (e *timedEstimator) Estimate(obs []float64) float64 {
	t0 := e.tr.Now()
	v := e.inner.Estimate(obs)
	sp, id := noParent, int64(0)
	if e.parent != nil {
		sp, id = e.parent()
	}
	e.tr.Add(e.name, t0, e.tr.Now(), sp, id)
	return v
}

func (e *timedEstimator) String() string { return e.inner.String() }

// timedCache spans every warm-start lookup.
type timedCache struct {
	inner *feddb.Cache
	tr    *Tracer
}

func (c *timedCache) Lookup(p space.Point) (float64, bool, int, bool) {
	t0 := c.tr.Now()
	v, fed, n, ok := c.inner.Lookup(p)
	c.tr.Add("cache.lookup", t0, c.tr.Now(), noParent, 0)
	return v, fed, n, ok
}
