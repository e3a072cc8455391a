package measuredb

import (
	"paratune/internal/event"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// BatchEvaluator is the engine's evaluator shape (core.Evaluator, matched
// structurally so this package stays below core in the import graph).
type BatchEvaluator interface {
	Eval(points []space.Point) ([]float64, error)
}

// Memo wraps a batch evaluator with the store's exact-match memoisation: a
// candidate whose configuration already has at least K stored raw
// observations is served from the store — est.Estimate over the *first* K
// observations, exactly what a live measurement loop would have computed —
// and spends no simulator steps or client measurements. Unresolved
// candidates are forwarded to the inner evaluator in one batch (whose
// measurements reach the store through the cluster's observation sink),
// preserving batch semantics for the optimiser. A configuration named more
// than once in a batch is forwarded once and every copy gets its value, so
// the live estimate is the one a later lookup serves: the first K
// observations.
//
// Every lookup is mirrored to the event stream as db_hit or db_miss when a
// recorder is listening; without one no event or config-key string is
// built, and a hit builds no key at all.
//
// Memo is the one warm-start lookup of every driver: core.RunOnline,
// core.RunOnlineAsync and each harmony session wrap their evaluator in it.
// It is driven by a single engine goroutine and is not safe for concurrent
// use; the store underneath it is.
type Memo struct {
	// Session labels the db_hit and db_miss events; "" outside a harmony
	// session.
	Session string
	// Cache, when non-nil, answers lookups instead of the store's raw
	// observations; it must estimate over the same store with est.
	Cache EstimateCache

	inner BatchEvaluator
	store *Store
	est   sample.Estimator
	rec   event.Recorder // nil unless event.Active
	vtime func() float64

	hits   int
	misses int

	// Scratch reused across Eval calls; missAt maps a config key to its
	// index in missPts.
	obsBuf   []float64
	missPts  []space.Point
	missRefs []missRef
	missAt   map[string]int
}

// missRef links a candidate the store could not serve to the missPts entry
// measured for it.
type missRef struct{ cand, pt int }

// EstimateCache is a read-through estimate cache over a store (implemented by
// feddb.Cache). Lookup returns the cached or freshly computed estimate for p,
// whether any contributing observation arrived via federation, and how many
// observations backed it; ok is false while the store holds too few
// observations to estimate.
type EstimateCache interface {
	Lookup(p space.Point) (v float64, federated bool, count int, ok bool)
}

// NewMemo builds the memoising evaluator. est must be the same estimator the
// live measurement path uses, so served values are bit-identical to what
// re-measuring would have produced under the stored observations. vtime
// supplies the current virtual time for event payloads; nil records 0.
func NewMemo(inner BatchEvaluator, store *Store, est sample.Estimator, rec event.Recorder, vtime func() float64) *Memo {
	m := &Memo{inner: inner, store: store, est: est, vtime: vtime}
	if event.Active(rec) {
		m.rec = rec
	}
	return m
}

// Eval implements the engine evaluator: resolve what the store can, measure
// the rest.
func (m *Memo) Eval(points []space.Point) ([]float64, error) {
	out := make([]float64, len(points))
	m.missPts = m.missPts[:0]
	m.missRefs = m.missRefs[:0]
	clear(m.missAt)
	k := m.est.K()
	var vt float64
	if m.rec != nil && m.vtime != nil {
		vt = m.vtime()
	}
	for i, p := range points {
		v, federated, count, hit := m.lookup(p, k)
		if hit {
			out[i] = v
			m.hits++
			if m.rec != nil {
				m.rec.Record(event.DBHit{
					Session: m.Session, Config: p.Key(), Value: v, Count: k, Source: hitSource(federated), VTime: vt,
				})
			}
			continue
		}
		m.misses++
		if m.rec != nil {
			m.rec.Record(event.DBMiss{
				Session: m.Session, Config: p.Key(), Count: count, VTime: vt,
			})
		}
		var kb [8 * 16]byte // room for 16 coordinates; wider points grow onto the heap
		key := AppendKey(kb[:0], p)
		j, dup := m.missAt[string(key)]
		if !dup {
			if m.missAt == nil {
				m.missAt = make(map[string]int)
			}
			j = len(m.missPts)
			m.missAt[string(key)] = j
			m.missPts = append(m.missPts, p)
		}
		m.missRefs = append(m.missRefs, missRef{cand: i, pt: j})
	}
	if len(m.missPts) > 0 {
		ys, err := m.inner.Eval(m.missPts)
		if err != nil {
			return nil, err
		}
		for _, r := range m.missRefs {
			out[r.cand] = ys[r.pt]
		}
	}
	return out, nil
}

// lookup resolves p through the cache when one is set, else from the first k
// stored observations; count is how many observations the lookup saw.
func (m *Memo) lookup(p space.Point, k int) (v float64, federated bool, count int, hit bool) {
	if m.Cache != nil {
		return m.Cache.Lookup(p)
	}
	var have bool
	m.obsBuf, have, federated = m.store.AppendObsSource(m.obsBuf[:0], p, k)
	if have && len(m.obsBuf) >= k {
		return m.est.Estimate(m.obsBuf), federated, len(m.obsBuf), true
	}
	return 0, federated, len(m.obsBuf), false
}

// hitSource maps the provenance flag to the db_hit Source tag. Local hits
// stay untagged so single-node traces are byte-identical to before.
func hitSource(federated bool) string {
	if federated {
		return "federated"
	}
	return ""
}

// Hits returns how many candidate evaluations were served from the store.
func (m *Memo) Hits() int { return m.hits }

// Misses returns how many candidate evaluations the store could not serve;
// copies of one configuration in a batch count once each but are measured
// once.
func (m *Memo) Misses() int { return m.misses }
