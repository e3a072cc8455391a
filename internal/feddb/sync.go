package feddb

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"paratune/internal/event"
	"paratune/internal/measuredb"
)

// Options configures one anti-entropy round.
type Options struct {
	// MaxBatch bounds the frames per pull/push message; 0 means 512.
	MaxBatch int
	// Recorder receives the sync lifecycle events; nil records nothing.
	Recorder event.Recorder
	// ReadTimeout/WriteTimeout bound each frame exchange; 0 means 10s.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// Stats summarises one sync round. A converged pair reports all zeros.
type Stats struct {
	// Pulled/Pushed count frames newly applied locally / by the peer.
	Pulled int
	Pushed int
	// Duplicates counts shipped frames the receiver already held.
	Duplicates int
}

// syncConn is one client-side sync conversation: sequential request/reply
// over a deadline-guarded connection.
type syncConn struct {
	conn net.Conn
	br   *bufio.Reader
	bufs syncBufs
	rt   time.Duration
	wt   time.Duration
}

// roundTrip writes req and decodes the reply into resp, surfacing protocol
// error replies as Go errors.
func (c *syncConn) roundTrip(req, resp *syncMsg) error {
	if err := c.conn.SetWriteDeadline(time.Now().Add(c.wt)); err != nil {
		return err
	}
	if err := writeSyncMsg(c.conn, &c.bufs, req); err != nil {
		return err
	}
	if err := c.conn.SetReadDeadline(time.Now().Add(c.rt)); err != nil {
		return err
	}
	if err := readSyncMsg(c.br, &c.bufs, resp); err != nil {
		return err
	}
	if resp.Op == opError {
		return fmt.Errorf("feddb: peer error: %s", resp.Detail)
	}
	return nil
}

// Sync runs one full anti-entropy round against the peer on conn: digest
// exchange, per-origin segment pulls, then pushes of everything the peer is
// missing. A round that fails part way keeps every frame it applied, so the
// next round's digest picks up exactly the remainder. The connection is
// left open for further rounds; the caller owns closing it.
// peer is a display label for events (typically the dialled address).
func Sync(conn net.Conn, store *measuredb.Store, peer string, opts Options) (Stats, error) {
	var stats Stats
	if store == nil {
		return stats, fmt.Errorf("feddb: sync: no store")
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 512
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 10 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	rec := event.OrNop(opts.Recorder)
	c := &syncConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), rt: opts.ReadTimeout, wt: opts.WriteTimeout}

	if err := conn.SetWriteDeadline(time.Now().Add(c.wt)); err != nil {
		return stats, err
	}
	if _, err := conn.Write([]byte(SyncMagic)); err != nil {
		return stats, err
	}

	local := store.Digest()
	var remote syncMsg
	hello := syncMsg{Op: opHello, Seed: store.Seed(), Space: store.SpaceSig(), Origins: local}
	if err := c.roundTrip(&hello, &remote); err != nil {
		return stats, err
	}
	if remote.Op != opDigest {
		return stats, fmt.Errorf("feddb: sync: expected digest, got %q", remote.Op)
	}
	// The peer's binding binds this store by measuredb's one rule, as Merge
	// and the serve side do: an unbound store adopts it, so a freshly
	// synced store refuses foreign-space writes, and a bound one must match.
	if err := store.BindSpace(remote.Space); err != nil {
		return stats, err
	}

	// The index maps below are bounded by the two digests; the decoder
	// already caps the remote one, this check pins the local side too.
	if len(local) > maxSyncOrigins || len(remote.Origins) > maxSyncOrigins {
		return stats, fmt.Errorf("feddb: sync: digest lists %d+%d origins, cap %d", len(local), len(remote.Origins), maxSyncOrigins)
	}
	localHigh := make(map[string]uint64, len(local))
	for _, d := range local {
		localHigh[d.Origin] = d.High
	}
	var pullLag, pushLag uint64
	origins := make(map[string]bool, len(local)+len(remote.Origins))
	for _, d := range remote.Origins {
		origins[d.Origin] = true
		if lh := localHigh[d.Origin]; d.High > lh {
			pullLag += d.High - lh
		}
	}
	remoteHigh := make(map[string]uint64, len(remote.Origins))
	for _, d := range remote.Origins {
		remoteHigh[d.Origin] = d.High
	}
	for _, d := range local {
		origins[d.Origin] = true
		if rh := remoteHigh[d.Origin]; d.High > rh {
			pushLag += d.High - rh
		}
	}
	rec.Record(event.SyncStart{Peer: peer, PullLag: pullLag, PushLag: pushLag, Origins: len(origins)})

	// Divergence is detectable wherever the local store holds the peer's
	// whole history of an origin: before anything is pulled or pushed.
	for _, d := range remote.Origins {
		if err := store.CheckPrefix(d); err != nil {
			return stats, fmt.Errorf("feddb: sync: %w", err)
		}
	}

	// Segment pulls: per origin, everything past the local high.
	for _, d := range remote.Origins {
		if err := pullSegments(c, store, peer, d, &opts, &stats, rec); err != nil {
			return stats, err
		}
	}

	// Push phase: ship everything the peer is missing of what we hold
	// (including frames we just learned third-hand — the peer's digest is
	// the baseline, its ack dedups any overlap).
	for _, d := range store.Digest() {
		if err := pushSegments(c, store, peer, d, remoteHigh[d.Origin], &opts, &stats, rec); err != nil {
			return stats, err
		}
	}

	rec.Record(event.SyncComplete{
		Peer: peer, Pulled: stats.Pulled, Pushed: stats.Pushed,
		Duplicates: stats.Duplicates,
	})
	return stats, nil
}

// pullSegments catches the local store up on one origin, batch by batch,
// then cross-checks the chain hash once the highs meet.
func pullSegments(c *syncConn, store *measuredb.Store, peer string, d measuredb.OriginDigest, opts *Options, stats *Stats, rec event.Recorder) error {
	for {
		from := store.High(d.Origin) + 1
		if from > d.High {
			break
		}
		req := syncMsg{Op: opPull, Origin: d.Origin, From: from, Max: uint64(opts.MaxBatch)}
		var resp syncMsg
		if err := c.roundTrip(&req, &resp); err != nil {
			return err
		}
		if resp.Op != opFrames {
			return fmt.Errorf("feddb: sync: expected frames, got %q", resp.Op)
		}
		if len(resp.Frames) == 0 {
			if from <= resp.High {
				return fmt.Errorf("feddb: sync: origin %s stalled at seq %d (peer high %d)", d.Origin, from, resp.High)
			}
			break // the peer regressed below its digest; nothing to ship
		}
		applied, dups := 0, 0
		for i := range resp.Frames {
			ok, aerr := store.Apply(resp.Frames[i])
			if aerr != nil {
				return fmt.Errorf("feddb: sync: apply pulled frame: %w", aerr)
			}
			if ok {
				applied++
			} else {
				dups++
			}
		}
		stats.Pulled += applied
		stats.Duplicates += dups
		rec.Record(event.SyncSegments{
			Peer: peer, Origin: d.Origin, Dir: "pull",
			From: from, Frames: len(resp.Frames), Duplicates: dups,
		})
		if err := store.CheckPrefix(measuredb.OriginDigest{Origin: d.Origin, High: resp.High, Hash: resp.Hash}); err != nil {
			return fmt.Errorf("feddb: sync: after pull: %w", err)
		}
		if uint64(len(resp.Frames)) < req.Max && store.High(d.Origin) >= d.High {
			break
		}
	}
	return nil
}

// pushSegments ships one origin's frames past the peer's acknowledged high.
func pushSegments(c *syncConn, store *measuredb.Store, peer string, d measuredb.OriginDigest, peerHigh uint64, opts *Options, stats *Stats, rec event.Recorder) error {
	from := peerHigh + 1
	buf := make([]measuredb.Frame, 0, opts.MaxBatch)
	for from <= d.High {
		var high uint64
		buf, high, _ = store.AppendFrames(buf[:0], d.Origin, from, opts.MaxBatch)
		if len(buf) == 0 {
			break
		}
		buf = trimFrames(buf)
		if len(buf) == 0 {
			return fmt.Errorf("feddb: sync: origin %s frame at seq %d exceeds segment bound", d.Origin, from)
		}
		req := syncMsg{Op: opPush, Origin: d.Origin, Frames: buf}
		var resp syncMsg
		if err := c.roundTrip(&req, &resp); err != nil {
			return err
		}
		if resp.Op != opAck {
			return fmt.Errorf("feddb: sync: expected ack, got %q", resp.Op)
		}
		stats.Pushed += int(resp.Applied)
		stats.Duplicates += int(resp.Dups)
		rec.Record(event.SyncSegments{
			Peer: peer, Origin: d.Origin, Dir: "push",
			From: from, Frames: len(buf), Duplicates: int(resp.Dups),
		})
		from = buf[len(buf)-1].Seq + 1
		if from > high {
			break
		}
	}
	return nil
}
