package feddb

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"paratune/internal/measuredb"
)

// Serve-side batching bounds. A pull reply must fit the frame cap whatever
// the configuration dimensionality, so segments are cut by encoded size as
// well as frame count.
const (
	maxPullFrames   = 1024
	maxSegmentBytes = 256 << 10
)

// ServeOptions configures one served sync connection.
type ServeOptions struct {
	// Store is the measurement database served to peers.
	Store *measuredb.Store
	// ReadTimeout/WriteTimeout bound each frame exchange; 0 means the
	// defaults (10s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// ServeConn runs the server side of one PHSYNC1 connection whose 8-byte
// preamble has already been consumed by the caller's codec sniffer. br is
// the connection's buffered reader (it may hold frames beyond the
// preamble). The loop answers hello with the store's digest once the
// peer's space has bound the store by measuredb's rule (an unbound store
// adopts it, a bound one must match), pull with WAL segments, and push with
// set-union application; it returns when the peer disconnects or on the
// first protocol violation.
func ServeConn(conn net.Conn, br *bufio.Reader, opts ServeOptions) error {
	if opts.Store == nil {
		return fmt.Errorf("feddb: serve: no store")
	}
	if opts.ReadTimeout <= 0 {
		opts.ReadTimeout = 10 * time.Second
	}
	if opts.WriteTimeout <= 0 {
		opts.WriteTimeout = 10 * time.Second
	}
	var bufs syncBufs
	var msg, reply syncMsg
	for {
		if err := conn.SetReadDeadline(time.Now().Add(opts.ReadTimeout)); err != nil {
			return err
		}
		if err := readSyncMsg(br, &bufs, &msg); err != nil {
			return err
		}
		reply = syncMsg{}
		fatal := false
		switch msg.Op {
		case opHello:
			st := opts.Store
			if err := st.BindSpace(msg.Space); err != nil {
				reply = syncMsg{Op: opError, Detail: err.Error()}
				fatal = true
				break
			}
			reply = syncMsg{Op: opDigest, Seed: st.Seed(), Space: st.SpaceSig(), Origins: st.Digest()}
		case opPull:
			max := int(msg.Max)
			if max <= 0 || max > maxPullFrames {
				max = maxPullFrames
			}
			frames, high, hash := opts.Store.AppendFrames(nil, msg.Origin, msg.From, max)
			reply = syncMsg{Op: opFrames, Origin: msg.Origin, Frames: trimFrames(frames), High: high, Hash: hash}
		case opPush:
			var applied, dups uint64
			for i := range msg.Frames {
				ok, aerr := opts.Store.Apply(msg.Frames[i])
				if aerr != nil {
					reply = syncMsg{Op: opError, Detail: aerr.Error()}
					fatal = true
					break
				}
				if ok {
					applied++
				} else {
					dups++
				}
			}
			if !fatal {
				reply = syncMsg{Op: opAck, Applied: applied, Dups: dups}
			}
		case opDigest, opFrames, opAck, opError:
			// Response ops have no business arriving at the server.
			reply = syncMsg{Op: opError, Detail: "unexpected op " + msg.Op.String()}
			fatal = true
		default:
			reply = syncMsg{Op: opError, Detail: "unknown op"}
			fatal = true
		}
		if err := conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout)); err != nil {
			return err
		}
		if err := writeSyncMsg(conn, &bufs, &reply); err != nil {
			return err
		}
		if fatal {
			return fmt.Errorf("feddb: serve: %s", reply.Detail)
		}
	}
}

// trimFrames cuts a segment at the encoded-size bound so the reply always
// fits the frame cap.
func trimFrames(frames []measuredb.Frame) []measuredb.Frame {
	total := 0
	for i := range frames {
		total += frameWireSize(&frames[i])
		if total > maxSegmentBytes {
			return frames[:i]
		}
	}
	return frames
}

// frameWireSize is a conservative upper bound on one frame's encoding.
func frameWireSize(f *measuredb.Frame) int {
	return 32 + len(f.Origin) + 8*len(f.Point)
}
