// Package atomics is golden-file input for the atomics analyzer: every
// legacy pointer-based sync/atomic call is flagged, and the typed atomics
// stay silent.
package atomics

import "sync/atomic"

type counter struct {
	hits int64
}

func (c *counter) bump() {
	atomic.AddInt64(&c.hits, 1) // want "atomic.AddInt64 on a plain variable"
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.hits) // want "atomic.LoadInt64 on a plain variable"
}

var generation uint32

func advance(old uint32) bool {
	return atomic.CompareAndSwapUint32(&generation, old, old+1) // want "atomic.CompareAndSwapUint32 on a plain variable"
}

// gauge uses a typed atomic: no plain access is expressible, so the rule
// stays silent.
type gauge struct {
	level atomic.Int64
}

func (g *gauge) set(v int64) { g.level.Store(v) }
func (g *gauge) get() int64  { return g.level.Load() }
