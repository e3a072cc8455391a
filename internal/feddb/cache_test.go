package feddb

import (
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/measuredb"
	"paratune/internal/sample"
	"paratune/internal/space"
)

func newCacheUnderTest(t *testing.T) (*measuredb.Store, *Cache) {
	t.Helper()
	st := measuredb.NewMemory(measuredb.Options{Seed: 1, Origin: "local"})
	est, err := sample.NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	return st, NewCache(st, est, est.K(), 8)
}

func TestCacheReadThrough(t *testing.T) {
	st, c := newCacheUnderTest(t)
	p := space.Point{1, 2}

	if _, _, _, ok := c.Lookup(p); ok {
		t.Fatal("lookup of an unmeasured configuration succeeded")
	}
	st.Observe(p, 9)
	st.Observe(p, 4)
	if _, _, count, ok := c.Lookup(p); ok || count != 2 {
		t.Fatalf("below-K lookup = ok %v count %d, want miss with 2", ok, count)
	}
	st.Observe(p, 6)
	v, federated, count, ok := c.Lookup(p)
	if !ok || v != 4 || federated || count != 3 {
		t.Fatalf("lookup = (%v, %v, %d, %v), want (4, local, 3, true)", v, federated, count, ok)
	}
	// Second lookup is a hit.
	before := c.Stats()
	if v, _, _, ok := c.Lookup(p); !ok || v != 4 {
		t.Fatalf("second lookup = %v, %v", v, ok)
	}
	if after := c.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("hits %d -> %d, want +1", before.Hits, after.Hits)
	}
}

func TestCacheInvalidatedByFederatedApply(t *testing.T) {
	st, c := newCacheUnderTest(t)
	p := space.Point{3}
	for _, v := range []float64{8, 5, 7} {
		st.Observe(p, v)
	}
	if v, federated, _, ok := c.Lookup(p); !ok || v != 5 || federated {
		t.Fatalf("warm lookup = (%v, %v, %v)", v, federated, ok)
	}

	// A synced frame for the same configuration must drop the cached entry
	// and resurface with the better value and federated provenance. The
	// estimator reads the first K observations in canonical (origin, seq)
	// order — identical on every converged peer — so the peer origin here
	// sorts before "local" to land inside the estimating window.
	applied, err := st.Apply(measuredb.Frame{Origin: "apeer", Seq: 1, Point: p, Value: 2})
	if err != nil || !applied {
		t.Fatalf("apply = %v, %v", applied, err)
	}
	if inv := c.Stats().Invalidations; inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}
	v, federated, _, ok := c.Lookup(p)
	if !ok || v != 2 || !federated {
		t.Fatalf("post-sync lookup = (%v, %v, %v), want (2, federated, true)", v, federated, ok)
	}
}

func TestCacheFlushWhenFull(t *testing.T) {
	st, c := newCacheUnderTest(t)
	for i := 0; i < 20; i++ {
		p := space.Point{float64(i)}
		for k := 0; k < 3; k++ {
			st.Observe(p, float64(i+k))
		}
		if _, _, _, ok := c.Lookup(p); !ok {
			t.Fatalf("lookup %d failed", i)
		}
	}
	if entries := c.Stats().Entries; entries > 8 {
		t.Fatalf("cache grew to %d entries past its bound of 8", entries)
	}
}

// A cache hit is the warm path's per-candidate cost: the key lives on the
// stack and the map probe converts it without allocating.
func TestCacheLookupHitAllocFree(t *testing.T) {
	st, c := newCacheUnderTest(t)
	p := space.Point{1, 2, 3}
	for _, v := range []float64{9, 4, 6} {
		st.Observe(p, v)
	}
	if _, _, _, ok := c.Lookup(p); !ok {
		t.Fatal("fill lookup missed")
	}
	alloccheck.Guard(t, "Cache.Lookup hit", 0, func() {
		if v, _, _, ok := c.Lookup(p); !ok || v != 4 {
			t.Fatalf("hit = %v, %v", v, ok)
		}
	})
}
