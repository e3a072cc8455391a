// Package measuredb is a persistent, concurrent measurement database: every
// (configuration, raw measurement) pair observed during tuning is recorded in
// a sharded in-memory store backed by one append-only write-ahead log. The
// paper's §6 evaluation replays a *measured performance database* with
// weighted-nearest interpolation; this package makes that database a
// first-class, durable artefact shared across tuning sessions instead of an
// ephemeral in-memory grid.
//
// The store answers two questions:
//
//   - exact match: "has this configuration already been measured at least K
//     times?" — the memoisation path ([Store.AppendObsSource], [Memo]) that lets a
//     warm-started run skip re-measuring resolved configurations;
//   - aggregation: per-configuration min / mean / median / p90 over all raw
//     observations ([Store.ForEach]), computed with internal/stats.
//
// Every observation additionally carries a federation identity: the origin
// (the store that first recorded it) and a per-origin sequence number.
// Observations are immutable, so merging two stores is a set union keyed by
// that identity — idempotent and order-independent — which is what the live
// anti-entropy protocol (internal/feddb) and the offline `measuredb merge`
// verb both build on ([Store.Apply], [Store.Merge], [Store.Digest]).
// Per-origin histories are append-only and gap-free, summarised by a
// (high, chained-hash) digest so peers can tell at a glance which frames the
// other side is missing.
//
// Persistence is deterministic: the WAL carries the run seed in its header
// and its encoding is iteration-order-free, so two same-seed runs produce
// byte-identical files (a property db-smoke pins). Compaction rewrites the
// WAL in (origin, seq) order, so a store directory holds exactly one file.
// A torn WAL tail — the expected artefact of a
// crash mid-append — is truncated at the last good record on open and
// surfaced as a wal_corrupt fault event.
package measuredb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"

	"paratune/internal/event"
	"paratune/internal/fault"
	"paratune/internal/frame"
	"paratune/internal/space"
	"paratune/internal/stats"
)

// numShards spreads configurations over independently locked maps so
// concurrent harmony sessions don't serialise on one mutex for reads.
const numShards = 16

// maxStackDim is the largest dimensionality whose binary key fits the
// stack-allocated scratch buffer on the exact-match lookup path.
const maxStackDim = 16

// FNV-1a constants for shard selection and digest hash chaining.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// record is one configuration's raw measurement history in canonical
// (origin, seq) order. For a single-origin store that is arrival order; a
// federated store interleaves remote observations at their sorted position
// so converged peers hold byte-identical per-configuration sequences.
type record struct {
	point space.Point
	obs   []float64
	meta  []obsMeta // parallel to obs: each observation's (origin, seq)
}

// obsMeta is one observation's federation identity: the origin (as an index
// into the store's interned origin table) and the per-origin sequence.
type obsMeta struct {
	origin uint32
	seq    uint64
}

// shard is one lock-striped slice of the store. recs is keyed by the
// configuration's canonical binary key (see AppendKey).
type shard struct {
	mu   sync.Mutex //paralint:lockrank 50
	recs map[string]*record
}

// obsRef locates one frame of an origin's history: the record holding it and
// the measured value. The per-origin log is contiguous (seq n lives at index
// n-1), so a (origin, seq) pair resolves without searching.
type obsRef struct {
	rec   *record
	value float64
}

// originState is one origin's append-only history: the highest contiguous
// sequence applied, the chained digest hash over its canonical frame
// payloads, and the frame log for segment shipping.
type originState struct {
	name string
	high uint64
	hash uint64
	log  []obsRef
}

// RecoveryInfo describes a WAL recovery performed at Open: the log ended in
// a torn or corrupted record and was truncated at the last good frame.
type RecoveryInfo struct {
	// TruncatedAt is the byte offset the WAL was cut back to.
	TruncatedAt int64
	// DroppedBytes is how many trailing bytes were discarded.
	DroppedBytes int64
	// FramesApplied is how many good frames were replayed before the cut.
	FramesApplied int
}

// Store is the measurement database. Raw observations live in the sharded
// in-memory maps; when opened on a directory, every local Observe (and every
// federated Apply) is also framed into the WAL so a crashed process loses at
// most the torn tail record.
//
// Reads (AppendObsSource, ForEach) take only the shard locks; writes
// and persistence state serialise on mu, keeping WAL frame order identical
// to in-memory arrival order.
type Store struct {
	// Immutable after Open/NewMemory.
	seed     int64
	dir      string // "" for a memory-only store
	origin   string // this store's identity in federated merges
	local    uint32 // origins index of the local origin
	walPath  string
	recovery *RecoveryInfo // non-nil iff Open truncated a corrupt WAL tail

	shards [numShards]shard

	mu        sync.Mutex //paralint:lockrank 40
	spaceSig  string
	origins   []*originState
	originIdx map[string]uint32
	wal       *os.File // nil for a memory-only store
	walBuf    []byte   // scratch payload-encode buffer
	frameBuf  []byte   // scratch frame-encode buffer
	keyBuf    []byte   // scratch key buffer for the write path
	err       error    // sticky persistence error
	rec       event.Recorder
	hook      func(key string) // apply hook, fired after mu is released
}

// AppendKey appends p's canonical binary key to dst: each coordinate's
// IEEE-754 bit pattern, big-endian. The key is injective on float64 vectors
// (unlike formatted strings) and byte-comparable, so sorting keys sorts
// configurations deterministically.
func AppendKey(dst []byte, p space.Point) []byte {
	for _, c := range p {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c))
	}
	return dst
}

// KeyString returns p's canonical binary key as a string — the key the
// apply hook reports and the read-through cache tier indexes by.
func KeyString(p space.Point) string {
	return string(AppendKey(make([]byte, 0, 8*len(p)), p))
}

// shardFor hashes a canonical key to its shard with FNV-1a.
func shardFor(key []byte) uint64 {
	h := uint64(fnvOffset)
	for _, b := range key {
		h = (h ^ uint64(b)) * fnvPrime
	}
	return h % numShards
}

// samePoint reports bitwise equality of two points (NaN-safe: identity, not
// numeric comparison — duplicate detection must be exact).
func samePoint(a, b space.Point) bool {
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

// internLocked resolves an origin name to its state, creating it on first
// sight. Caller holds s.mu (or the store is not yet shared).
func (s *Store) internLocked(name string) (uint32, *originState) {
	if i, ok := s.originIdx[name]; ok {
		return i, s.origins[i]
	}
	if s.originIdx == nil {
		s.originIdx = make(map[string]uint32)
	}
	i := uint32(len(s.origins))
	st := &originState{name: name}
	s.origins = append(s.origins, st)
	s.originIdx[name] = i
	return i, st
}

// metaLess orders observations canonically by (origin name, seq). Caller
// holds s.mu, which guards the origins table.
func (s *Store) metaLessLocked(a, b obsMeta) bool {
	if a.origin != b.origin {
		return s.origins[a.origin].name < s.origins[b.origin].name
	}
	return a.seq < b.seq
}

// insertObs places one observation at its canonical position in r. Local
// observations (and any single-origin replay) always hit the append fast
// path. Caller holds s.mu and the record's shard lock.
func (s *Store) insertObsLocked(r *record, v float64, m obsMeta) {
	n := len(r.meta)
	if n == 0 || s.metaLessLocked(r.meta[n-1], m) {
		r.obs = append(r.obs, v)
		r.meta = append(r.meta, m)
		return
	}
	i := sort.Search(n, func(i int) bool { return s.metaLessLocked(m, r.meta[i]) })
	r.obs = append(r.obs, 0)
	copy(r.obs[i+1:], r.obs[i:])
	r.obs[i] = v
	r.meta = append(r.meta, obsMeta{})
	copy(r.meta[i+1:], r.meta[i:])
	r.meta[i] = m
}

// applyLocked is the set-union core every ingest path funnels through:
// local Observe, federated Apply, offline Merge, and WAL replay. It admits
// frame (origin, seq) exactly once, enforcing the per-origin contiguity
// invariant (the next frame is high+1; anything at or below high must be a
// byte-identical duplicate; anything beyond high+1 is a gap). Applied frames
// extend the origin's chained digest hash and, when persist is set, the WAL.
// Caller holds s.mu.
func (s *Store) applyLocked(origin string, seq uint64, p space.Point, v float64, persist bool) (applied bool, err error) {
	if origin == "" || len(origin) > maxOriginLen {
		return false, fmt.Errorf("measuredb: invalid origin %q", origin)
	}
	if seq == 0 {
		return false, fmt.Errorf("measuredb: origin %s: sequence numbers start at 1", origin)
	}
	if len(p) == 0 || !fault.ValidValue(v) {
		return false, fmt.Errorf("measuredb: origin %s seq %d: invalid measurement", origin, seq)
	}
	oi, ost := s.internLocked(origin)
	if seq <= ost.high {
		ref := ost.log[seq-1]
		if math.Float64bits(ref.value) != math.Float64bits(v) || !samePoint(ref.rec.point, p) {
			return false, fmt.Errorf("measuredb: origin %s seq %d: conflicting duplicate (observations are immutable)", origin, seq)
		}
		return false, nil
	}
	if seq != ost.high+1 {
		return false, fmt.Errorf("measuredb: origin %s: sequence gap (have %d, got %d)", origin, ost.high, seq)
	}

	s.walBuf = appendMeasurementPayload(s.walBuf[:0], p, v, origin, seq)
	s.keyBuf = AppendKey(s.keyBuf[:0], p)
	sh := &s.shards[shardFor(s.keyBuf)]
	sh.mu.Lock()
	r := sh.recs[string(s.keyBuf)]
	if r == nil {
		r = &record{point: p.Clone()}
		if sh.recs == nil {
			sh.recs = make(map[string]*record)
		}
		sh.recs[string(s.keyBuf)] = r
	}
	s.insertObsLocked(r, v, obsMeta{origin: oi, seq: seq})
	sh.mu.Unlock()

	ost.log = append(ost.log, obsRef{rec: r, value: v})
	ost.high = seq
	ost.hash = chainHash(ost.hash, s.walBuf)

	if persist && s.wal != nil && s.err == nil {
		s.frameBuf = frame.Append(s.frameBuf[:0], s.walBuf)
		if _, werr := s.wal.Write(s.frameBuf); werr != nil {
			s.err = werr
		}
	}
	return true, nil
}

// Observe records one raw measurement for configuration p, appending it to
// the in-memory record and, for a directory-backed store, to the WAL.
// Invalid values (NaN, ±Inf, negative) are ignored — they are Corrupt-fault
// garbage, not measurements. Safe for concurrent use; a nil *Store ignores
// the observation, so call sites need no guards. WAL write failures are
// sticky: the store keeps serving reads and recording in memory, and Err
// reports the first failure.
func (s *Store) Observe(p space.Point, v float64) {
	if s == nil || len(p) == 0 || !fault.ValidValue(v) {
		return
	}
	s.mu.Lock()
	ls := s.origins[s.local]
	applied, _ := s.applyLocked(ls.name, ls.high+1, p, v, true)
	hook := s.hook
	s.mu.Unlock()
	if applied && hook != nil {
		hook(KeyString(p))
	}
}

// Frame is one observation in shipping form: its federation identity, the
// configuration, and the measured value. Frames returned by AppendFrames
// alias store-owned points — treat them as read-only.
type Frame struct {
	Origin string
	Seq    uint64
	Point  space.Point
	Value  float64
}

// Apply admits one federated frame through the set-union core: a frame the
// store already holds is a verified no-op (applied=false, nil error), the
// next contiguous frame for its origin is appended (to memory, digest chain,
// and WAL), and anything else — a sequence gap or a conflicting duplicate —
// is an error. Safe for concurrent use.
func (s *Store) Apply(f Frame) (applied bool, err error) {
	if s == nil {
		return false, errors.New("measuredb: nil store")
	}
	s.mu.Lock()
	applied, err = s.applyLocked(f.Origin, f.Seq, f.Point, f.Value, true)
	hook := s.hook
	s.mu.Unlock()
	if applied && hook != nil {
		hook(KeyString(f.Point))
	}
	return applied, err
}

// OriginDigest summarises one origin's history: the highest contiguous
// sequence and the chained FNV-1a hash over its canonical frame payloads.
// Equal digests mean byte-identical per-origin histories.
type OriginDigest struct {
	Origin string `json:"origin"`
	High   uint64 `json:"high"`
	Hash   uint64 `json:"hash"`
}

// Digest returns the store's anti-entropy summary: one entry per origin with
// at least one frame, sorted by origin name.
func (s *Store) Digest() []OriginDigest {
	s.mu.Lock()
	ds := make([]OriginDigest, 0, len(s.origins))
	for _, o := range s.origins {
		if o.high == 0 {
			continue
		}
		ds = append(ds, OriginDigest{Origin: o.name, High: o.high, Hash: o.hash})
	}
	s.mu.Unlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].Origin < ds[j].Origin })
	return ds
}

// High returns the highest contiguous sequence the store holds for origin
// (0 if the origin is unknown).
func (s *Store) High(origin string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.originIdx[origin]; ok {
		return s.origins[i].high
	}
	return 0
}

// AppendFrames appends up to max frames (all, if max <= 0) of origin's
// history starting at sequence from, plus the origin's current high and
// chain hash — the segment-shipping read. The appended frames' points alias
// store memory and must be treated as read-only.
func (s *Store) AppendFrames(dst []Frame, origin string, from uint64, max int) ([]Frame, uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.originIdx[origin]
	if !ok {
		return dst, 0, 0
	}
	ost := s.origins[i]
	if from == 0 {
		from = 1
	}
	n := 0
	for seq := from; seq <= ost.high; seq++ {
		if max > 0 && n >= max {
			break
		}
		ref := ost.log[seq-1]
		dst = append(dst, Frame{Origin: origin, Seq: seq, Point: ref.rec.point, Value: ref.value})
		n++
	}
	return dst, ost.high, ost.hash
}

// CheckPrefix reports an error when the store's history of d.Origin and the
// history d summarises disagree on the frames both hold. A digest carries
// one chain hash, the one at d.High, so the check decides only when the
// store holds at least d.High frames of the origin; with fewer it returns
// nil, and a caller catching up checks again once it holds d.High. Merge
// and feddb's sync run every overlap through this one rule.
func (s *Store) CheckPrefix(d OriginDigest) error {
	if h, ok := s.hashAt(d.Origin, d.High); ok && h != d.Hash {
		return fmt.Errorf("measuredb: origin %s diverged at seq %d (chain hash mismatch)", d.Origin, d.High)
	}
	return nil
}

// hashAt returns the chain hash over origin's first n frames, or false when
// the store holds fewer than n (or n is 0). Below the origin's high the
// chain is replayed outside s.mu, which is safe because a log's first n
// entries never change once written.
func (s *Store) hashAt(origin string, n uint64) (uint64, bool) {
	s.mu.Lock()
	i, ok := s.originIdx[origin]
	if !ok || n == 0 || s.origins[i].high < n {
		s.mu.Unlock()
		return 0, false
	}
	ost := s.origins[i]
	hash, log := ost.hash, ost.log[:n]
	replay := n < ost.high
	s.mu.Unlock()
	if !replay {
		return hash, true
	}
	var h uint64
	var buf []byte
	for i, ref := range log {
		buf = appendMeasurementPayload(buf[:0], ref.rec.point, ref.value, origin, uint64(i+1))
		h = chainHash(h, buf)
	}
	return h, true
}

// MergeStats reports a Merge outcome: frames applied and duplicate
// observations skipped (already present on the destination).
type MergeStats struct {
	Applied    int
	Duplicates int
}

// Merge unions src's observations into s through the same (origin, seq)
// set-union core live sync uses: for each origin, frames past s's high are
// shipped in chunks and applied; everything at or below it is counted as a
// skipped duplicate once CheckPrefix has matched it. Every origin's overlap
// is checked before any frame is applied, so a source whose history of an
// origin diverges from s's leaves s unchanged. Merge is idempotent and never
// holds both stores' locks at once. src's space signature binds s by
// adoptSpace's rule, checked before the prefix checks and bound after them,
// so a refused merge also leaves s unchanged.
func (s *Store) Merge(src *Store) (MergeStats, error) {
	var st MergeStats
	if s == nil || src == nil || s == src {
		return st, nil
	}
	ssig := src.SpaceSig()
	if _, err := adoptSpace(s.SpaceSig(), ssig, s.dir != ""); err != nil {
		return st, err
	}
	digests := src.Digest()
	for _, d := range digests {
		n := min(s.High(d.Origin), d.High)
		if h, ok := src.hashAt(d.Origin, n); ok {
			if err := s.CheckPrefix(OriginDigest{Origin: d.Origin, High: n, Hash: h}); err != nil {
				return st, err
			}
		}
	}
	if err := s.BindSpace(ssig); err != nil {
		return st, err
	}
	const chunk = 512
	buf := make([]Frame, 0, chunk)
	for _, d := range digests {
		from := s.High(d.Origin) + 1
		if from > 1 {
			dup := from - 1
			if dup > d.High {
				dup = d.High
			}
			st.Duplicates += int(dup)
		}
		for from <= d.High {
			buf, _, _ = src.AppendFrames(buf[:0], d.Origin, from, chunk)
			if len(buf) == 0 {
				break
			}
			for _, f := range buf {
				applied, err := s.Apply(f)
				if err != nil {
					return st, err
				}
				if applied {
					st.Applied++
				} else {
					st.Duplicates++
				}
			}
			from = buf[len(buf)-1].Seq + 1
		}
	}
	return st, nil
}

// SetApplyHook registers fn to be called (with the configuration's canonical
// key, outside all store locks) after every applied observation — the cache
// tier's invalidation feed. nil detaches.
func (s *Store) SetApplyHook(fn func(key string)) {
	s.mu.Lock()
	s.hook = fn
	s.mu.Unlock()
}

// AppendObsSource is the exact-match lookup: it appends up to max stored
// raw observations for p (in canonical order) to dst and reports whether the
// configuration exists at all; max <= 0 means all. federated reports whether
// any returned observation was first recorded by a different store — the
// signal behind the db_hit event's "federated" source tag. The caller owns
// dst, so a reused buffer with capacity makes the lookup allocation-free —
// the memo path calls this once per candidate per iteration, and the
// alloccheck test pins a zero-alloc budget.
func (s *Store) AppendObsSource(dst []float64, p space.Point, max int) (obs []float64, found, federated bool) {
	var kb [8 * maxStackDim]byte
	key := kb[:0]
	if len(p) > maxStackDim {
		key = make([]byte, 0, 8*len(p))
	}
	key = AppendKey(key, p)
	sh := &s.shards[shardFor(key)]
	sh.mu.Lock()
	r := sh.recs[string(key)]
	found = r != nil
	if found {
		n := len(r.obs)
		if max > 0 && n > max {
			n = max
		}
		dst = append(dst, r.obs[:n]...)
		for i := 0; i < n; i++ {
			if r.meta[i].origin != s.local {
				federated = true
				break
			}
		}
	}
	sh.mu.Unlock()
	return dst, found, federated
}

// Agg is one configuration's aggregate over all raw observations. Min is the
// headline statistic (the paper's min-of-K estimate as K→count); the order
// statistics expose the noise profile behind it.
type Agg struct {
	Point  space.Point
	Count  int
	Min    float64
	Mean   float64
	Median float64
	P90    float64
}

// aggOf computes the aggregate for one record's observations (non-empty).
func aggOf(p space.Point, obs []float64) Agg {
	return Agg{
		Point:  p,
		Count:  len(obs),
		Min:    stats.Min(obs),
		Mean:   stats.Mean(obs),
		Median: stats.Median(obs),
		P90:    stats.Percentile(obs, 0.9),
	}
}

// entry is one configuration's point and raw observations in canonical
// (origin, seq) order.
type entry struct {
	point space.Point
	obs   []float64
}

// gather copies every record as an entry in canonical key order. Shard
// locks are taken one at a time, so the result is a consistent view only
// when no writes are in flight.
func (s *Store) gather() []entry {
	var keys []string
	var es []entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, r := range sh.recs {
			keys = append(keys, k)
			es = append(es, entry{
				point: r.point.Clone(),
				obs:   append([]float64(nil), r.obs...),
			})
		}
		sh.mu.Unlock()
	}
	sort.Sort(keyedEntries{keys: keys, es: es})
	return es
}

// keyedEntries sorts entries by their canonical key bytes.
type keyedEntries struct {
	keys []string
	es   []entry
}

func (k keyedEntries) Len() int           { return len(k.keys) }
func (k keyedEntries) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedEntries) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.es[i], k.es[j] = k.es[j], k.es[i]
}

// ForEach visits every configuration in canonical key order with its
// aggregate. The visit order is deterministic, so exports built on it are
// byte-stable.
func (s *Store) ForEach(fn func(Agg)) {
	for _, e := range s.gather() {
		fn(aggOf(e.point, e.obs))
	}
}

// ForEachRaw visits every configuration in canonical key order with its raw
// observations in canonical (origin, seq) order. The slices are copies the
// callback may keep.
func (s *Store) ForEachRaw(fn func(p space.Point, obs []float64)) {
	for _, e := range s.gather() {
		fn(e.point, e.obs)
	}
}

// Stats returns the number of distinct configurations and total raw
// observations currently in memory.
func (s *Store) Stats() (configs, observations int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		configs += len(sh.recs)
		for _, r := range sh.recs {
			observations += len(r.obs)
		}
		sh.mu.Unlock()
	}
	return configs, observations
}

// Seed returns the seed stamped into the store's file headers.
func (s *Store) Seed() int64 { return s.seed }

// Dir returns the backing directory, or "" for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// Origin returns this store's own origin name — the identity stamped on
// every observation it records locally.
func (s *Store) Origin() string { return s.origin }

// Recovery returns the WAL recovery performed at Open, or nil if the log was
// clean.
func (s *Store) Recovery() *RecoveryInfo { return s.recovery }

// SpaceSig returns the search-space signature the store is bound to ("" if
// unbound).
func (s *Store) SpaceSig() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spaceSig
}

// Err returns the sticky persistence error, if a WAL write has failed.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// SetRecorder attaches an event recorder for db_snapshot events emitted by
// Compact. nil detaches.
func (s *Store) SetRecorder(r event.Recorder) {
	s.mu.Lock()
	s.rec = r
	s.mu.Unlock()
}
