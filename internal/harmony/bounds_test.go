package harmony

import (
	"testing"

	"paratune/internal/alloccheck"
)

// Per-session memory that a client controls the size of must stay bounded
// however many reports it sends. These tests pin each bound at its site.

// TestSlotMemoryBounded sends one sample slot hundreds of reports through
// the session's report path — resends of its value and surplus new values,
// each beside a tag-0 report — and none of them allocates: the slot buffer
// keeps its K values, and a report leaves no per-report state behind.
func TestSlotMemoryBounded(t *testing.T) {
	srv := NewServer(ServerOptions{Estimator: mustMinOfK(t, 3)})
	defer srv.Close()
	if err := srv.Register("s", gs2Params()); err != nil {
		t.Fatal(err)
	}
	frs, err := srv.FetchN("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	s := srv.lookup("s")
	items := []ReportItem{{Tag: frs[0].Tag, Value: 1}, {Tag: 0, Value: 1}}
	sent := 0
	send := func(v float64) {
		items[0].Value = v
		sent++
		if _, err := s.report(items); err != nil {
			t.Fatal(err)
		}
	}
	send(1) // fills the slot
	alloccheck.Guard(t, "harmony.session.report/resend", 0, func() { send(1) })
	alloccheck.Guard(t, "harmony.session.report/surplus", 0, func() { send(float64(1 + sent)) })
	s.mu.Lock()
	defer s.mu.Unlock()
	c, j := s.slotLocked(frs[0].Tag)
	if c == nil || len(c.obs) != 3 || cap(c.obs) != 3 || c.filled != 1 || c.obs[j] != 1 {
		t.Errorf("after %d reports for one slot the candidate is %+v, want its 3 slots, only this one filled, with 1", sent, c)
	}
}
