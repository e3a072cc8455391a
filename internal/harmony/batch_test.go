package harmony

import (
	"testing"
	"unsafe"

	"paratune/internal/alloccheck"
	"paratune/internal/measuredb"
	"paratune/internal/space"
)

// A session keeps its candidate array and sample slots from batch to batch,
// so a later batch allocates only the slab its points are copied onto, and
// the session stays in the 448-byte size class.
func TestPublishReusesBatchStorage(t *testing.T) {
	if size := unsafe.Sizeof(session{}); size > 448 {
		t.Errorf("session is %d bytes, past its 448-byte size class", size)
	}
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	s := srv.lookup("s")
	// The engine is parked until a step, so the test may publish for it.
	s.mu.Lock()
	points := make([]space.Point, len(s.cands))
	for i := range s.cands {
		points[i] = s.cands[i].point.Clone()
	}
	cands, slots := &s.cands[0], &s.slots[0]
	s.mu.Unlock()
	alloccheck.Guard(t, "harmony.session.publish/later batch", 1, func() {
		if !s.publish(points) {
			t.Fatal("publish refused a live session's batch")
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if &s.cands[0] != cands || &s.slots[0] != slots {
		t.Error("a later batch of no more candidates got new batch storage")
	}
	for i := range s.cands {
		c := &s.cands[i]
		if c.filled != 0 || c.next != 0 || c.firstEmpty() != 0 || !c.point.Equal(points[i]) {
			t.Fatalf("republished candidate %d is %+v, want point %v with every slot empty", i, *c, points[i])
		}
	}
	if want := s.nextTag - uint64(3*len(points)); s.cands[0].tag != want {
		t.Errorf("the batch's first tag is %d, want %d", s.cands[0].tag, want)
	}
}

// A converged session holds no batch storage. A session stopped mid-batch
// keeps the batch it abandoned: it still grants the batch's empty slots, and
// a late report for a slot granted before the stop reaches the store.
func TestFinishedSessionBatchStorage(t *testing.T) {
	srv := NewServer(ServerOptions{})
	defer srv.Close()
	if err := srv.Register("done", onePoint); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ReportN("done", onePointBatch); err != nil {
		t.Fatal(err)
	}
	s := srv.lookup("done")
	s.mu.Lock()
	cands, slots, converged := s.cands, s.slots, s.converged
	s.mu.Unlock()
	if !converged || cands != nil || slots != nil {
		t.Errorf("converged %v, still holding %d candidates and %d slots", converged, cap(cands), cap(slots))
	}

	db := measuredb.NewMemory(measuredb.Options{Seed: 1})
	srv = NewServer(ServerOptions{DB: db})
	defer srv.Close()
	if err := srv.Register("stopped", gs2Params()); err != nil {
		t.Fatal(err)
	}
	p := pendingBatch(t, srv, "stopped", 1)
	granted, err := srv.FetchN("stopped", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Stop("stopped"); err != nil {
		t.Fatal(err)
	}
	_, before := db.Stats()
	if _, err := srv.ReportN("stopped", []ReportItem{{Tag: granted[0].Tag, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, after := db.Stats(); after != before+1 {
		t.Errorf("a late report for granted tag %d left the store at %d observations, want %d", granted[0].Tag, after, before+1)
	}
	frs, err := srv.FetchN("stopped", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 1 || frs[0].Tag == 0 {
		t.Errorf("FetchN granted %+v, want an empty slot of the abandoned batch", frs)
	}
	s = srv.lookup("stopped")
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cands) != p {
		t.Errorf("the stopped session holds %d candidates, want the %d it was stopped with", len(s.cands), p)
	}
}

// Server.FetchN returns the caller's own copy of every point: writing one
// changes neither the session's candidates nor another grant's point.
func TestFetchNPointsAreCopies(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	p := pendingBatch(t, srv, "s", 2)
	frs, err := srv.FetchN("s", 3*p)
	if err != nil {
		t.Fatal(err)
	}
	if len(frs) != 3*p {
		t.Fatalf("FetchN granted %d slots, want all %d", len(frs), 3*p)
	}
	s := srv.lookup("s")
	s.mu.Lock()
	base := s.cands[0].tag
	want := make([]space.Point, p)
	for i := range want {
		want[i] = s.cands[i].point.Clone()
	}
	s.mu.Unlock()
	frs[0].Point[0] = -1
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.cands {
		if !s.cands[i].point.Equal(want[i]) {
			t.Errorf("writing a returned point changed candidate %d to %v", i, s.cands[i].point)
		}
	}
	for _, fr := range frs[1:] {
		if c := (fr.Tag - base) / 3; !fr.Point.Equal(want[c]) {
			t.Errorf("writing grant %d's point changed grant %d's to %v", frs[0].Tag, fr.Tag, fr.Point)
		}
	}
}
