package harmony

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"paratune/internal/alloccheck"
	"paratune/internal/frame"
	"paratune/internal/space"
)

// perGrantDecode is decodeResponse as it was before grants shared points:
// every grant's point is decoded afresh onto a slab sized to every float
// left in the payload. It is the reference the sharing decoder must agree
// with.
func perGrantDecode(payload []byte, resp *response) error {
	r := frame.NewReader(payload)
	flags := r.Byte()
	if flags&^byte(respFlagMask) != 0 {
		return frame.ErrMalformed
	}
	resp.OK = flags&respFlagOK != 0
	resp.Converged = flags&respFlagConverged != 0
	resp.Seq = r.Uvarint()
	resp.Code = r.Str()
	resp.Error = r.Str()
	resp.Point = floats(&r)
	resp.Value = r.F64()
	if flags&respFlagStats != 0 {
		st := &SessionStats{}
		st.Name = r.Str()
		st.Converged = r.Bool()
		st.Best = floats(&r)
		st.BestValue = r.F64()
		st.Pending = intVal(&r)
		st.NextTag = r.Uvarint()
		resp.Stats = st
	}
	if n := r.Count(2); n > 0 {
		resp.Batch = make([]FetchResult, n)
		slab := make([]float64, 0, r.Len()/8)
		for i := range resp.Batch {
			b := &resp.Batch[i]
			if m := r.Count(8); m > 0 {
				at := len(slab)
				for j := 0; j < m; j++ {
					slab = append(slab, r.F64())
				}
				b.Point = slab[at:len(slab):len(slab)]
			}
			b.Tag = r.Uvarint()
			b.Converged = r.Bool()
		}
	}
	resp.Accepted = intVal(&r)
	resp.Refused = intVal(&r)
	resp.Rejected = intVal(&r)
	return r.Finish()
}

// sameDecode decodes payload with decodeResponse and with perGrantDecode
// and fails t unless both accept or both reject it, and an accepted reply
// decodes to the same fields, point values bit for bit.
func sameDecode(t *testing.T, payload []byte) (got response, err error) {
	t.Helper()
	var want response
	err, werr := decodeResponse(payload, &got), perGrantDecode(payload, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decodeResponse: %v, per-grant decoder: %v, for %x", err, werr, payload)
	}
	if err != nil {
		return got, err
	}
	// The fields outside the batch compare by their encoding, which holds
	// every float's bits.
	g, w := withoutBatch(got), withoutBatch(want)
	if !bytes.Equal(appendResponse(nil, &g), appendResponse(nil, &w)) || len(got.Batch) != len(want.Batch) {
		t.Fatalf("decoded %+v, per-grant decoder %+v", got, want)
	}
	for i, g := range got.Batch {
		w := want.Batch[i]
		if g.Tag != w.Tag || g.Converged != w.Converged || !sameBits(g.Point, w.Point) || cap(g.Point) != len(g.Point) {
			t.Fatalf("grant %d decoded as %+v (cap %d), per-grant decoder %+v", i, g, cap(g.Point), w)
		}
	}
	return got, nil
}

// withoutBatch is resp with its batch left out.
func withoutBatch(resp response) response {
	resp.Batch = nil
	return resp
}

// sameBits reports whether a and b hold the same float bits, nil and empty
// alike.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Randomised FetchN replies decode to the per-grant decoder's tags,
// converged flags and point values, and grants whose points repeat one of
// the last pointLookback distinct points share it. The replies draw their
// points from a pool that has equal coordinates under different tags, empty
// points, and more distinct points than the lookback holds; one shape is a
// lone tag-0 answer.
func TestDecodeResponseMatchesPerGrant(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		var resp response
		resp.OK, resp.Seq = true, uint64(trial)
		switch trial % 5 {
		case 0: // a tag-0 answer: the best, converged or not
			resp.Batch = []FetchResult{{Point: randPoint(rng, 3), Converged: trial%2 == 0}}
		default:
			// A pool of up to 3·pointLookback points, some repeated under
			// another index (equal coordinates, different candidates), some
			// empty.
			pool := make([]space.Point, 1+rng.Intn(3*pointLookback))
			for i := range pool {
				switch {
				case i > 0 && rng.Intn(5) == 0:
					pool[i] = pool[rng.Intn(i)].Clone()
				case rng.Intn(10) == 0:
					pool[i] = nil
				default:
					pool[i] = randPoint(rng, 1+rng.Intn(4))
				}
			}
			k := 1 + rng.Intn(5)
			for pass := 0; pass < k; pass++ {
				for i, p := range pool {
					resp.Batch = append(resp.Batch, FetchResult{Point: p, Tag: uint64(1 + i*k + pass)})
				}
			}
			rng.Shuffle(len(resp.Batch)/4, func(i, j int) { resp.Batch[i], resp.Batch[j] = resp.Batch[j], resp.Batch[i] })
		}
		payload := appendResponse(nil, &resp)
		got, err := sameDecode(t, payload)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if re := appendResponse(nil, &got); !bytes.Equal(re, payload) {
			t.Fatalf("trial %d: re-encoding changed the bytes", trial)
		}
		// Sharing: a grant whose point bytes repeat one of the last
		// pointLookback distinct points shares that point.
		var distinct []space.Point
		for i, g := range got.Batch {
			if len(g.Point) == 0 {
				continue
			}
			recent := distinct[max(0, len(distinct)-pointLookback):]
			shared := -1
			for j, d := range recent {
				if sameBits(d, g.Point) {
					shared = j
				}
			}
			switch {
			case shared < 0:
				distinct = append(distinct, g.Point)
			case &recent[shared][0] != &g.Point[0]:
				t.Fatalf("trial %d: grant %d repeats a recent point but has a copy of its own", trial, i)
			}
		}
	}
}

// randPoint returns a point of dim coordinates, some of them whole numbers.
func randPoint(rng *rand.Rand, dim int) space.Point {
	p := make(space.Point, dim)
	for i := range p {
		p[i] = math.Round(rng.Float64()*64) / float64(1+rng.Intn(2))
	}
	return p
}

// A 16-grant FetchN reply over a GS2 session's first batch, six candidates
// at min-of-3, decodes in two allocations: the grants and a slab of the six
// distinct 3-float points, 18 floats.
func TestDecodeFetchNReplyAllocs(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	if p := pendingBatch(t, srv, "s", 1); p != 6 {
		t.Fatalf("GS2's first batch has %d candidates, want 6", p)
	}
	grants, err := srv.fetchN(nil, "s", 16)
	if err != nil {
		t.Fatal(err)
	}
	payload := appendResponse(nil, &response{OK: true, Seq: 9, Batch: grants})
	// The grant count follows the header of the same reply without grants,
	// which ends in its zero grant count and three more zero counts.
	r := frame.NewReader(payload[len(appendResponse(nil, &response{OK: true, Seq: 9}))-4:])
	if n := r.Count(2); n != 16 {
		t.Fatalf("the reply carries %d grants, want 16", n)
	}
	if got := distinctFloats(r, 16); got != 18 {
		t.Errorf("the slab is sized for %d floats, want 18", got)
	}
	var resp response
	alloccheck.Guard(t, "harmony.decodeResponse/fetchn16 over 6 candidates", 2, func() {
		resp = response{}
		if err := decodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
	})
	points := map[*float64]bool{}
	for _, g := range resp.Batch {
		points[&g.Point[0]] = true
	}
	if len(resp.Batch) != 16 || len(points) != 6 {
		t.Errorf("decoded %d grants onto %d points, want 16 onto 6", len(resp.Batch), len(points))
	}
}
