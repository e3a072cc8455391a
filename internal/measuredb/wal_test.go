package measuredb

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"paratune/internal/event"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// populate writes a small deterministic history into st.
func populate(st *Store) {
	for i := 0; i < 5; i++ {
		p := space.Point{float64(i), float64(i % 2)}
		for j := 0; j < 3; j++ {
			st.Observe(p, float64(10*i+j))
		}
	}
}

// aggState renders the full aggregate state for equality comparison.
func aggState(t *testing.T, st *Store) []Agg {
	t.Helper()
	var out []Agg
	st.ForEach(func(a Agg) { out = append(out, a) })
	return out
}

func sameState(a, b []Agg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Point.Equal(b[i].Point) || a[i].Count != b[i].Count ||
			a[i].Min != b[i].Min || a[i].Mean != b[i].Mean {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Seed: 42, Space: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	want := aggState(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := aggState(t, st2); !sameState(want, got) {
		t.Fatalf("reopened state differs:\n got %+v\nwant %+v", got, want)
	}
	if st2.Seed() != 42 {
		t.Fatalf("Seed = %d, want persisted 42", st2.Seed())
	}
	if st2.SpaceSig() != "sig" {
		t.Fatalf("SpaceSig = %q, want persisted sig", st2.SpaceSig())
	}
	if st2.Recovery() != nil {
		t.Fatal("clean WAL reported a recovery")
	}
}

// A "kill": the process dies without Close. Every completed Observe must
// survive, because frames are written synchronously on the Observe path.
func TestWALKillRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	want := aggState(t, st)
	// No Close: drop the handle as a crash would.

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := aggState(t, st2); !sameState(want, got) {
		t.Fatalf("state lost across kill-restart:\n got %+v\nwant %+v", got, want)
	}
}

func TestWALCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	want := aggState(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn append: garbage after the last good frame.
	walPath := filepath.Join(dir, walFileName)
	goodLen := fileSize(t, walPath)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 0xff, 0x00, 0xba, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec := &event.Memory{}
	st2, err := Open(dir, Options{Recorder: rec})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	ri := st2.Recovery()
	if ri == nil {
		t.Fatal("no RecoveryInfo after corrupt tail")
	}
	if ri.TruncatedAt != goodLen || ri.DroppedBytes != 5 || ri.FramesApplied != 15 {
		t.Fatalf("RecoveryInfo = %+v, want truncate at %d, 5 dropped, 15 frames", ri, goodLen)
	}
	if got := aggState(t, st2); !sameState(want, got) {
		t.Fatal("good prefix not fully recovered")
	}
	if fileSize(t, walPath) != goodLen {
		t.Fatal("corrupt tail not truncated on disk")
	}
	if got := rec.Count(event.KindFault); got != 1 {
		t.Fatalf("fault events = %d, want 1 wal_corrupt", got)
	}
	fe, ok := rec.Events()[0].(event.FaultInjected)
	if !ok || fe.Fault != "wal_corrupt" || fe.Proc != -1 || fe.Detail == "" {
		t.Fatalf("recovery event = %+v, want wal_corrupt with detail", rec.Events()[0])
	}

	// A corrupted mid-file byte loses the tail from that point, not the prefix.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	ri = st3.Recovery()
	if ri == nil || ri.FramesApplied >= 15 || ri.TruncatedAt >= goodLen {
		t.Fatalf("mid-file corruption recovery = %+v", ri)
	}
	_, obs := st3.Stats()
	if obs != ri.FramesApplied {
		t.Fatalf("replayed %d observations, recovery says %d frames", obs, ri.FramesApplied)
	}
}

func TestCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	rec := &event.Memory{}
	st, err := Open(dir, Options{Seed: 3, Space: "sig", Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	want := aggState(t, st)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(event.KindDBSnapshot); got != 1 {
		t.Fatalf("db_snapshot events = %d, want 1", got)
	}
	// New observations after compaction land in the WAL again.
	extra := space.Point{99, 99}
	st.Observe(extra, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got := aggState(t, st2)
	if len(got) != len(want)+1 {
		t.Fatalf("configs after compact+append = %d, want %d", len(got), len(want)+1)
	}
	if a, ok := aggregate(st2, extra); !ok || a.Min != 1 {
		t.Fatal("post-compaction observation lost")
	}
}

// Compaction must not change what a warm-started run computes: observation
// order within each configuration survives the snapshot.
func TestCompactPreservesObservationOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := space.Point{4}
	for _, v := range []float64{9, 2, 7} {
		st.Observe(p, v)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	obs, ok, _ := st2.AppendObsSource(nil, p, 0)
	if !ok || len(obs) != 3 || obs[0] != 9 || obs[1] != 2 || obs[2] != 7 {
		t.Fatalf("observation order after compact = %v, want [9 2 7]", obs)
	}
}

func TestOpenRejectsMismatchedSpace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Space: "sigA"})
	if err != nil {
		t.Fatal(err)
	}
	st.Observe(space.Point{1}, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Space: "sigB"}); err == nil {
		t.Fatal("Open accepted a store bound to a different space")
	}
}

// Same seed, same observation sequence → byte-identical WAL files, before
// and after compaction, the determinism contract db-smoke relies on.
func TestSameSeedFilesByteIdentical(t *testing.T) {
	files := func() []byte {
		dir := t.TempDir()
		st, err := Open(dir, Options{Seed: 11, Space: "sig"})
		if err != nil {
			t.Fatal(err)
		}
		populate(st)
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		populate(st) // post-compaction WAL content too
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(dir, walFileName))
		if err != nil {
			t.Fatal(err)
		}
		return wal
	}
	if !bytes.Equal(files(), files()) {
		t.Fatal("same-seed WALs differ")
	}
}

// A single-origin store whose header already carries its space holds its
// frames in (origin, seq) order already, so Compact rewrites the same bytes.
func TestCompactSingleOriginByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Seed: 5, Space: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	populate(st)
	walPath := filepath.Join(dir, walFileName)
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("compact changed a single-origin WAL:\n got %x\nwant %x", after, before)
	}
}

// fillTwoOrigins records three local and three peer observations over two
// points, interleaved or origin-major. The local origin is interned first
// but sorts last ("peer" < "self"), so interning order is not (origin, seq)
// order.
func fillTwoOrigins(t *testing.T, dir string, interleave bool) *Store {
	t.Helper()
	st, err := Open(dir, Options{Seed: 9, Origin: "self", Space: "sig"})
	if err != nil {
		t.Fatal(err)
	}
	pts := []space.Point{{1, 2}, {3, 4}}
	local := func(i int) { st.Observe(pts[i%2], float64(10+i)) }
	peer := func(i int) {
		if _, err := st.Apply(Frame{Origin: "peer", Seq: uint64(i + 1), Point: pts[(i+1)%2], Value: float64(20 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if interleave {
		for i := 0; i < 3; i++ {
			peer(i)
			local(i)
		}
		return st
	}
	for i := 0; i < 3; i++ {
		peer(i)
	}
	for i := 0; i < 3; i++ {
		local(i)
	}
	return st
}

// Compacting a store whose origins' arrivals interleave writes exactly the
// file an origin-major fill writes, and changes no answer the store gives.
func TestCompactOrdersOriginMajor(t *testing.T) {
	dir := t.TempDir()
	st := fillTwoOrigins(t, dir, true)
	defer st.Close()
	wantDigest := st.Digest()
	lookup := func(st *Store) [][]float64 {
		var out [][]float64
		for _, p := range []space.Point{{1, 2}, {3, 4}} {
			obs, _, federated := st.AppendObsSource(nil, p, 0)
			if !federated {
				t.Errorf("%v: not reported federated", p)
			}
			out = append(out, obs)
		}
		return out
	}
	wantObs := lookup(st)
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}

	refDir := t.TempDir()
	ref := fillTwoOrigins(t, refDir, false)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(refDir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted WAL differs from an origin-major fill:\n got %x\nwant %x", got, want)
	}
	if got := st.Digest(); !reflect.DeepEqual(got, wantDigest) {
		t.Errorf("Digest after compact = %+v, want %+v", got, wantDigest)
	}
	if got := lookup(st); !reflect.DeepEqual(got, wantObs) {
		t.Errorf("AppendObsSource after compact = %v, want %v", got, wantObs)
	}
}

// A space bound after creation is not in the header Open wrote; Compact
// writes the current header, so a reopen with no options finds the binding.
func TestCompactPersistsLateBindSpace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	if err := st.BindSpace("late"); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	populate(st)
	want := aggState(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.SpaceSig(); got != "late" {
		t.Errorf("SpaceSig after reopen = %q, want late", got)
	}
	if got := aggState(t, re); !sameState(want, got) {
		t.Errorf("state after reopen:\n got %+v\nwant %+v", got, want)
	}
}

// A space whose discrete menu makes its signature longer than a WAL header
// holds never binds a persistent store: Open and BindSpace refuse it, so
// Compact writes a header that reopens. A signature at the limit round-trips.
func TestLongSpaceSignatureRefused(t *testing.T) {
	menu := make([]float64, 12000)
	for i := range menu {
		menu[i] = float64(i) + 0.5
	}
	sp, err := space.New(space.DiscreteParam("n", menu...))
	if err != nil {
		t.Fatal(err)
	}
	long := sp.String()
	if len(long) <= maxSpaceSigLen {
		t.Fatalf("the signature is %d bytes, not past the %d-byte limit", len(long), maxSpaceSigLen)
	}
	dir := t.TempDir()
	if st, err := Open(dir, Options{Space: long}); err == nil {
		st.Close()
		t.Fatal("Open bound a signature past the WAL header's limit")
	}
	st, err := Open(dir, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	if err := st.BindSpace(long); err == nil {
		t.Error("BindSpace bound a signature past the WAL header's limit")
	}
	mem := NewMemory(Options{Seed: 4, Space: long})
	if _, err := st.Merge(mem); err == nil {
		t.Error("Merge adopted a source's signature past the WAL header's limit")
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopening after a refused bind: %v", err)
	}
	if got := re.SpaceSig(); got != "" {
		t.Errorf("SpaceSig after reopen = %d bytes, want unbound", len(got))
	}
	atLimit := strings.Repeat("s", maxSpaceSigLen)
	if err := re.BindSpace(atLimit); err != nil {
		t.Fatal(err)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopening a store bound at the limit: %v", err)
	}
	defer re.Close()
	if got := re.SpaceSig(); got != atLimit {
		t.Errorf("SpaceSig after reopen = %d bytes, want the %d bound", len(got), len(atLimit))
	}
}

// A wal.db.tmp left by a Compact that crashed before its rename holds no
// state Open reads, and the next Compact replaces it.
func TestStaleCompactTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, walFileName+".tmp")
	if err := os.WriteFile(tmp, []byte("PMDBWAL1 torn by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	want := aggState(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if st.Recovery() != nil {
		t.Errorf("stale tmp caused a recovery: %+v", st.Recovery())
	}
	if got := aggState(t, st); !sameState(want, got) {
		t.Fatalf("state with a stale tmp:\n got %+v\nwant %+v", got, want)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived compact (stat: %v)", err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := aggState(t, re); !sameState(want, got) {
		t.Fatalf("state after compact:\n got %+v\nwant %+v", got, want)
	}
}

// A directory still holding the snapshot file older stores wrote beside the
// WAL fails to open, and the error names the file.
func TestOpenRefusesRetiredSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snapshot.db")
	if err := os.WriteFile(snap, []byte("old compacted state"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), snap) {
		t.Fatalf("Open with a leftover snapshot: err = %v, want one naming %s", err, snap)
	}
}

func TestMemoryStoreCannotCompact(t *testing.T) {
	if err := NewMemory(Options{}).Compact(); err == nil {
		t.Fatal("memory-only store compacted")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// storeProbe is a recorder that checks, at every event, that neither the
// store's mutex nor any shard's is held, then reads the store back through
// Stats, Err and Digest. TryLock turns an emission under one of them into a
// test failure instead of a hang; the test drives the store from one
// goroutine, so nothing else holds them. Events recorded before st is set
// (Open's) have no store a recorder could reach yet.
type storeProbe struct {
	t  *testing.T
	st *Store
	event.Memory
}

func (p *storeProbe) Record(e event.Event) {
	p.Memory.Record(e)
	if p.st == nil {
		return
	}
	if !p.st.mu.TryLock() {
		p.t.Errorf("%s event recorded under the store lock", e.EventKind())
		return
	}
	p.st.mu.Unlock()
	for i := range p.st.shards {
		if !p.st.shards[i].mu.TryLock() {
			p.t.Errorf("%s event recorded under shard %d's lock", e.EventKind(), i)
			return
		}
		p.st.shards[i].mu.Unlock()
	}
	p.st.Stats()
	p.st.Digest()
	if err := p.st.Err(); err != nil {
		p.t.Errorf("recorder Err: %v", err)
	}
}

// A recorder may call back into the store: no measuredb event — a WAL
// recovery at Open, a snapshot at Compact, a Memo hit or miss — is recorded
// under a store or shard lock.
func TestRecorderMayReadStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	populate(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x17, 0xff}); err != nil { // a torn append
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	p := &storeProbe{t: t}
	if st, err = Open(dir, Options{Recorder: p}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p.st = st
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	est, err := sample.NewMinOfK(3)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMemo(&countingEval{store: st, k: est.K()}, st, est, p, nil)
	pts := []space.Point{{1, 1}, {2, 0}, {7, 7}}
	for range 2 {
		if _, err := m.Eval(pts); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []string{event.KindFault, event.KindDBSnapshot, event.KindDBHit, event.KindDBMiss} {
		if p.Count(kind) == 0 {
			t.Errorf("no %s event recorded; an emission site went unprobed", kind)
		}
	}
}
