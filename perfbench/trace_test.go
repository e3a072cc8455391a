package main

import "testing"

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: noParent},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},   // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},  // runs past the root: clipped
		{Name: "d", Start: 60, End: 80, Parent: 0},   // has a child of its own
		{Name: "e", Start: 65, End: 70, Parent: 4},   // grandchild: not the root's
		{Name: "f", Start: 200, End: 210, Parent: 0}, // outside the root entirely
		{Name: "other", Start: 0, End: 40, Parent: noParent},
	}
	want := []int64{
		100 - (40 + 20 + 10), // root: [10,50] ∪ [60,80] ∪ [90,100]
		20, 30, 30,
		20 - 5, // d minus e
		5, 10, 40,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLayerTimesAddUpToTheRoot(t *testing.T) {
	// A request whose stages tile it with one gap: stage durations plus the
	// request's self time equal its duration.
	spans := []Span{
		{Name: "rt", Start: 1000, End: 9000, Parent: noParent},
		{Name: "encode", Start: 1000, End: 2000, Parent: 0},
		{Name: "handle", Start: 3000, End: 7000, Parent: 0},
		{Name: "decode", Start: 8500, End: 9000, Parent: 0},
	}
	lt := collectLayers(spans)
	total := lt.self["rt"][0]
	for _, n := range []string{"encode", "handle", "decode"} {
		total += lt.dur[n][0]
	}
	if total != lt.dur["rt"][0] || lt.self["rt"][0] != 2.5 {
		t.Errorf("stages sum to %g µs with self %g µs, request took %g µs", total, lt.self["rt"][0], lt.dur["rt"][0])
	}
}

func TestTracerRecordsParentsAndNilIsANoOp(t *testing.T) {
	var off *Tracer
	if i := off.Begin("x", noParent, 1); i != noParent {
		t.Errorf("nil tracer returned span %d", i)
	}
	off.End(3)

	tr := newTracer()
	root := tr.Begin("root", noParent, 7)
	child := tr.Add("child", tr.Now(), tr.Now(), root, 7)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[child].Parent != root || spans[root].End < spans[root].Start || spans[root].ID != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if a, b := tr.NextID(), tr.NextID(); b != a+1 {
		t.Errorf("ids %d then %d", a, b)
	}
}
