package measuredb

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"paratune/internal/event"
	"paratune/internal/fault"
	"paratune/internal/frame"
)

// walFileName is the store's one file inside its directory.
const walFileName = "wal.db"

// retiredSnapName is the snapshot file older stores kept beside the WAL.
// Their compaction truncated the WAL frames the snapshot held, so Open
// refuses such a directory rather than silently lose those observations.
const retiredSnapName = "snapshot.db"

// Options configures a store at Open/NewMemory.
type Options struct {
	// Seed is stamped into the WAL header so same-seed runs produce
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

// Open opens (or creates) the store persisted in dir, replaying its WAL
// into memory. A WAL ending in a torn or corrupted record — the expected
// artefact of a crash mid-append — is truncated at the first bad frame; the
// recovery is reported via Recovery and mirrored to opts.Recorder as a
// wal_corrupt fault event. A wal.db.tmp left by a Compact that crashed
// before its rename is ignored; the next Compact replaces it.
func Open(dir string, opts Options) (*Store, error) {
	snapPath := filepath.Join(dir, retiredSnapName)
	if _, err := os.Stat(snapPath); err == nil {
		return nil, fmt.Errorf("measuredb: %s: an earlier release's snapshot holds observations the WAL lacks, and snapshots are no longer read", snapPath)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("measuredb: stat %s: %w", snapPath, err)
	}
	s := &Store{
		seed:    opts.Seed,
		dir:     dir,
		origin:  opts.Origin,
		walPath: filepath.Join(dir, walFileName),
	}

	// Header: the persisted identity wins over opts, which may only agree
	// with it or leave it empty.
	data, err := os.ReadFile(s.walPath)
	fresh := errors.Is(err, os.ErrNotExist) || (err == nil && len(data) == 0)
	if err != nil && !fresh {
		return nil, fmt.Errorf("measuredb: read WAL: %w", err)
	}
	frameStart := 0
	if !fresh {
		seed, origin, sig, n, herr := decodeHeader(data)
		if herr != nil {
			return nil, fmt.Errorf("measuredb: WAL %s: %w", s.walPath, herr)
		}
		s.spaceSig = sig
		if origin != "" {
			// Renaming a store would orphan its published history.
			if s.origin != "" && s.origin != origin {
				return nil, fmt.Errorf("measuredb: %s belongs to origin %q, not %q", s.walPath, origin, s.origin)
			}
			s.origin = origin
		}
		s.seed = seed
		frameStart = n
	}
	if s.spaceSig, err = adoptSpace(s.spaceSig, opts.Space, true); err != nil {
		return nil, err
	}
	if s.origin == "" {
		s.origin = deriveOrigin(s.seed)
	}
	s.local, _ = s.internLocked(s.origin)

	// Frames, replayed in file order with truncate-at-bad-record recovery. A
	// frame the union core rejects (gap, conflict, invalid value) is treated
	// exactly like a corrupt one.
	var recovered *RecoveryInfo
	if fresh {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("measuredb: create store dir: %w", err)
		}
		hdr := appendHeader(nil, s.seed, s.origin, s.spaceSig)
		if werr := os.WriteFile(s.walPath, hdr, 0o644); werr != nil {
			return nil, fmt.Errorf("measuredb: init WAL: %w", werr)
		}
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

// adoptSpace is the one rule deciding whether a store bound to the space
// signature bound ("" when unbound) may take sig, and returns the binding
// that results. An empty sig binds nothing; an unbound store adopts sig; a
// bound store must match it; a persistent store refuses a sig its WAL
// header cannot hold. Open, BindSpace and Merge apply it, and so do both
// sides of a PHSYNC1 hello, through BindSpace.
func adoptSpace(bound, sig string, persistent bool) (string, error) {
	switch {
	case sig == "" || sig == bound:
		return bound, nil
	case bound != "":
		return "", fmt.Errorf("measuredb: store is bound to space %q, not %q", bound, sig)
	case persistent && len(sig) > maxSpaceSigLen:
		return "", fmt.Errorf("measuredb: space signature of %d bytes exceeds the WAL header's %d-byte limit", len(sig), maxSpaceSigLen)
	}
	return sig, nil
}

// BindSpace binds the store to a search-space signature, or verifies an
// existing binding, by adoptSpace's rule. The engine calls this before
// memoising so a store populated under one space is never silently
// replayed under another.
func (s *Store) BindSpace(sig string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	bound, err := adoptSpace(s.spaceSig, sig, s.dir != "")
	if err == nil {
		s.spaceSig = bound
	}
	return err
}

// Compact rewrites the WAL as the store's current state: the header with
// the store's seed, origin and current space binding (so a BindSpace after
// creation persists), then every origin's frames in (origin, seq) order. The new file
// is written and synced as wal.db.tmp, renamed over wal.db, and the
// directory is synced, so a crash at any point leaves one complete WAL, old
// or new; the tmp file's handle becomes the append handle. Observation order
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
	if err := s.rewriteLocked(); err != nil {
		err = fmt.Errorf("measuredb: compact: %w", err)
		s.err = err
		s.mu.Unlock()
		return err
	}
	configs, observations := s.Stats()
	rec := s.rec
	s.mu.Unlock()

	if rec != nil {
		rec.Record(event.DBSnapshot{Configs: configs, Observations: observations})
	}
	return nil
}

// rewriteLocked writes the compacted WAL and swaps it in as the append
// handle. Caller holds s.mu.
func (s *Store) rewriteLocked() error {
	tmp := s.walPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := s.writeFramesLocked(f); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := os.Rename(tmp, s.walPath); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := syncDir(s.dir); err != nil {
		return errors.Join(err, f.Close())
	}
	// The old handle's file is unlinked and the synced rewrite holds all it
	// wrote, so its close error changes nothing.
	_ = s.wal.Close()
	s.wal = f
	return nil
}

// writeFramesLocked writes the header and every origin's frames, sorted by
// origin name, to f and syncs it. Caller holds s.mu.
func (s *Store) writeFramesLocked(f *os.File) error {
	// The Writer keeps its first write error, and Flush returns it.
	w := bufio.NewWriter(f)
	w.Write(appendHeader(s.frameBuf[:0], s.seed, s.origin, s.spaceSig))
	origins := append([]*originState(nil), s.origins...)
	sort.Slice(origins, func(i, j int) bool { return origins[i].name < origins[j].name })
	for _, o := range origins {
		for i, ref := range o.log {
			s.walBuf = appendMeasurementPayload(s.walBuf[:0], ref.rec.point, ref.value, o.name, uint64(i+1))
			s.frameBuf = frame.Append(s.frameBuf[:0], s.walBuf)
			w.Write(s.frameBuf)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
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
