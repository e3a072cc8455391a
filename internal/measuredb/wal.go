package measuredb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"paratune/internal/event"
	"paratune/internal/fault"
)

// Default file names inside a store directory.
const (
	walFileName  = "wal.db"
	snapFileName = "snapshot.db"
)

// Options configures a store at Open/NewMemory.
type Options struct {
	// Seed is stamped into file headers so same-seed runs produce
	// byte-identical files. Ignored when the directory already holds a store
	// (the persisted seed wins).
	Seed int64
	// Origin is this store's identity in federated merges, stamped on every
	// locally recorded observation. A directory that already holds a store
	// keeps its persisted origin (and Open fails if a different one is
	// requested). Empty derives "n<seed hex>" — fine for a single node, but
	// fleet members must be given distinct origins.
	Origin string
	// Space is the search-space signature (space.Space.String()) the store
	// serves. Open fails if the directory is bound to a different signature;
	// leave empty to adopt the persisted one (or bind later via BindSpace).
	Space string
	// Recorder receives the wal_corrupt fault event when Open truncates a
	// torn WAL tail, and db_snapshot events from Compact.
	Recorder event.Recorder
}

// deriveOrigin names a store that was not given an explicit origin.
func deriveOrigin(seed int64) string {
	return "n" + strconv.FormatUint(uint64(seed), 16)
}

// NewMemory returns a memory-only store: same aggregation, memoisation, and
// federation semantics, no persistence. Used by tests and by harmony servers
// run without -db.
func NewMemory(opts Options) *Store {
	s := &Store{seed: opts.Seed, origin: opts.Origin, spaceSig: opts.Space, rec: opts.Recorder}
	if s.origin == "" {
		s.origin = deriveOrigin(s.seed)
	}
	s.local, _ = s.internLocked(s.origin)
	return s
}

// Open opens (or creates) the store persisted in dir, replaying the snapshot
// and then the WAL into memory. A WAL ending in a torn or corrupted record —
// the expected artefact of a crash mid-append — is truncated at the last
// good frame; the recovery is reported via Recovery and mirrored to
// opts.Recorder as a wal_corrupt fault event. A corrupted *snapshot* is an
// error instead: snapshots are written atomically, so damage there is not a
// crash artefact and silently rebuilding would discard compacted history.
//
// Replay funnels through the same (origin, seq) set-union core as live
// writes, so a WAL overlapping the snapshot — the artefact of a crash
// between snapshot write and WAL truncation during Compact — deduplicates
// cleanly instead of double-counting observations.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("measuredb: create store dir: %w", err)
	}
	s := &Store{
		seed:     opts.Seed,
		dir:      dir,
		origin:   opts.Origin,
		walPath:  filepath.Join(dir, walFileName),
		snapPath: filepath.Join(dir, snapFileName),
		spaceSig: opts.Space,
	}
	seeded := false

	// 1. Snapshot: compacted aggregate state, all-or-nothing. Decoded first
	// (headers win over the WAL's and over opts), replayed after the store's
	// identity is resolved.
	var snapOrigins []string
	var snapEntries []entry
	if data, err := os.ReadFile(s.snapPath); err == nil {
		seed, origin, sig, origins, entries, derr := decodeSnapshot(data)
		if derr != nil {
			return nil, fmt.Errorf("measuredb: snapshot %s: %w (snapshots are written atomically; refusing to guess)", s.snapPath, derr)
		}
		if err := adoptSig(&s.spaceSig, sig, s.snapPath); err != nil {
			return nil, err
		}
		if err := adoptOrigin(&s.origin, origin, s.snapPath); err != nil {
			return nil, err
		}
		s.seed, seeded = seed, true
		snapOrigins, snapEntries = origins, entries
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("measuredb: read snapshot: %w", err)
	}

	// 2. WAL header: adopt persisted identity before any frame is replayed.
	data, err := os.ReadFile(s.walPath)
	fresh := errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0)
	if err != nil && !fresh {
		return nil, fmt.Errorf("measuredb: read WAL: %w", err)
	}
	frameStart := 0
	if !fresh {
		seed, origin, sig, n, herr := decodeHeader(data, walMagic)
		if herr != nil {
			return nil, fmt.Errorf("measuredb: WAL %s: %w", s.walPath, herr)
		}
		if err := adoptSig(&s.spaceSig, sig, s.walPath); err != nil {
			return nil, err
		}
		if err := adoptOrigin(&s.origin, origin, s.walPath); err != nil {
			return nil, err
		}
		if !seeded {
			s.seed = seed
		}
		s.headerLen = int64(n)
		frameStart = n
	}
	if s.origin == "" {
		s.origin = deriveOrigin(s.seed)
	}
	s.local, _ = s.internLocked(s.origin)

	// 3. Snapshot replay, in (origin, seq) order — the order the contiguity
	// invariant requires.
	if len(snapEntries) > 0 {
		frames := flattenEntries(snapOrigins, snapEntries)
		for _, f := range frames {
			if _, aerr := s.applyLocked(f.Origin, f.Seq, f.Point, f.Value, false); aerr != nil {
				return nil, fmt.Errorf("measuredb: snapshot %s: %w", s.snapPath, aerr)
			}
		}
	}

	// 4. WAL frames: raw frames since the last compaction, replayed in file
	// order with truncate-at-bad-record recovery. A frame the snapshot
	// already covers is a verified duplicate; a frame the union core rejects
	// (gap, conflict, invalid value) is treated exactly like a corrupt one.
	var recovered *RecoveryInfo
	if fresh {
		hdr := appendHeader(nil, walMagic, s.seed, s.origin, s.spaceSig)
		if werr := os.WriteFile(s.walPath, hdr, 0o644); werr != nil {
			return nil, fmt.Errorf("measuredb: init WAL: %w", werr)
		}
		s.headerLen = int64(len(hdr))
	} else {
		n := frameStart
		frames := 0
		for n < len(data) {
			rec, used, derr := decodeWALFrame(data[n:])
			if derr == nil {
				_, derr = s.applyLocked(rec.origin, rec.seq, rec.point, rec.value, false)
			}
			if derr != nil {
				recovered = &RecoveryInfo{
					TruncatedAt:   int64(n),
					DroppedBytes:  int64(len(data) - n),
					FramesApplied: frames,
				}
				if terr := os.Truncate(s.walPath, int64(n)); terr != nil {
					return nil, fmt.Errorf("measuredb: truncate corrupt WAL tail: %w", terr)
				}
				break
			}
			n += used
			frames++
		}
	}
	s.recovery = recovered

	wal, err := os.OpenFile(s.walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("measuredb: open WAL for append: %w", err)
	}
	s.wal = wal
	s.rec = opts.Recorder

	// Mirror the recovery into the event stream only now: no store lock is
	// held and the store is fully usable if the recorder re-enters it.
	if recovered != nil && opts.Recorder != nil {
		opts.Recorder.Record(event.FaultInjected{
			Fault: fault.WALCorrupt.String(),
			Proc:  -1,
			Detail: fmt.Sprintf("truncated WAL at byte %d (dropped %d bytes after %d good frames)",
				recovered.TruncatedAt, recovered.DroppedBytes, recovered.FramesApplied),
		})
	}
	return s, nil
}

// flattenEntries expands decoded snapshot entries into frames sorted by
// (origin, seq) for contiguous replay.
func flattenEntries(origins []string, entries []entry) []Frame {
	total := 0
	for _, e := range entries {
		total += len(e.obs)
	}
	frames := make([]Frame, 0, total)
	for _, e := range entries {
		for i, v := range e.obs {
			frames = append(frames, Frame{
				Origin: origins[e.meta[i].origin],
				Seq:    e.meta[i].seq,
				Point:  e.point,
				Value:  v,
			})
		}
	}
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].Origin != frames[j].Origin {
			return frames[i].Origin < frames[j].Origin
		}
		return frames[i].Seq < frames[j].Seq
	})
	return frames
}

// adoptSig merges a persisted space signature into the store's, failing on a
// genuine conflict.
func adoptSig(dst *string, persisted, path string) error {
	if persisted == "" {
		return nil
	}
	if *dst == "" {
		*dst = persisted
		return nil
	}
	if *dst != persisted {
		return fmt.Errorf("measuredb: %s is bound to space %q, not %q", path, persisted, *dst)
	}
	return nil
}

// adoptOrigin merges a persisted origin into the store's, failing on a
// conflict — renaming a store would orphan its published history.
func adoptOrigin(dst *string, persisted, path string) error {
	if persisted == "" {
		return nil
	}
	if *dst == "" {
		*dst = persisted
		return nil
	}
	if *dst != persisted {
		return fmt.Errorf("measuredb: %s belongs to origin %q, not %q", path, persisted, *dst)
	}
	return nil
}

// BindSpace binds the store to a search-space signature, or verifies an
// existing binding. The engine calls this before memoising so a store
// populated under one space is never silently replayed under another.
func (s *Store) BindSpace(sig string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spaceSig == "" {
		s.spaceSig = sig
		return nil
	}
	if s.spaceSig != sig {
		return fmt.Errorf("measuredb: store is bound to space %q, not %q", s.spaceSig, sig)
	}
	return nil
}

// snapshotLocked serialises the full store state: gathered entries in
// canonical key order with meta remapped onto the sorted origin table.
// Caller holds s.mu.
func (s *Store) snapshotLocked() (data []byte, es []entry) {
	es = s.gather()
	names := make([]string, len(s.origins))
	for i, o := range s.origins {
		names[i] = o.name
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	remap := make([]uint32, len(names))
	for i, n := range names {
		remap[i] = uint32(sort.SearchStrings(sorted, n))
	}
	for _, e := range es {
		for j := range e.meta {
			e.meta[j].origin = remap[e.meta[j].origin]
		}
	}
	return encodeSnapshot(s.seed, s.origin, s.spaceSig, sorted, es), es
}

// Compact writes the full aggregate state to the snapshot file (atomically:
// tmp + rename) and truncates the WAL back to its header. Observation order
// within each configuration is preserved, so estimates computed from the
// first K observations are unchanged by compaction. Emits a db_snapshot
// event when a recorder is attached.
func (s *Store) Compact() error {
	s.mu.Lock()
	if s.wal == nil {
		s.mu.Unlock()
		return errors.New("measuredb: memory-only store cannot compact")
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	data, es := s.snapshotLocked()
	err := writeFileAtomic(s.snapPath, data)
	if err == nil {
		err = s.wal.Truncate(s.headerLen)
	}
	if err == nil {
		err = s.wal.Sync()
	}
	if err != nil {
		s.err = err
		s.mu.Unlock()
		return err
	}
	rec := s.rec
	s.mu.Unlock()

	if rec != nil {
		configs, observations := 0, 0
		for _, e := range es {
			configs++
			observations += len(e.obs)
		}
		rec.Record(event.DBSnapshot{Configs: configs, Observations: observations})
	}
	return nil
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never see a half-written snapshot.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		// Renames within one directory shouldn't fail; don't leave the tmp
		// file behind to be mistaken for state.
		if rmErr := os.Remove(tmp); rmErr != nil {
			return errors.Join(err, rmErr)
		}
		return err
	}
	return nil
}

// Close syncs and closes the WAL. The in-memory store stays readable; only
// persistence stops. Returns the sticky persistence error, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return s.err
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	if s.err != nil {
		return s.err
	}
	return err
}
