package chaos

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/frame"
	"paratune/internal/harmony"
)

// Killer is the supervisor hook the proxy fires scheduled server kills
// through. Kill must tear the backend down abruptly (no final checkpoint),
// wait roughly downMS milliseconds, and bring it back; the proxy keeps
// forwarding throughout — new backend dials simply fail while the server is
// down, which the harmony client's capped backoff absorbs.
type Killer interface {
	Kill(downMS float64)
}

// KillerFunc adapts a function to the Killer interface.
type KillerFunc func(downMS float64)

// Kill implements Killer.
func (f KillerFunc) Kill(downMS float64) { f(downMS) }

// Proxy is the fault-injecting relay. Each accepted client connection is
// paired with one backend connection (a "link"); the two forwarding
// goroutines per link consult the pre-drawn schedule for every frame they
// relay. Link ordinals are assigned in accept order.
type Proxy struct {
	cfg     Config
	sched   *schedule
	rec     event.Recorder
	backend func() (net.Conn, error)
	killer  Killer

	wg sync.WaitGroup

	mu       sync.Mutex //paralint:lockrank 12
	closed   bool
	conns    map[net.Conn]struct{}
	links    int // next link ordinal
	c2sTotal int // total forwarded client frames, for kill triggers
	nextKill int // index into sched.kills
}

// New draws the complete fault schedule from cfg, emits it as
// chaos_plan/chaos_kill events to cfg.Recorder, and returns the proxy.
// backend dials the (current incarnation of the) harmony server; killer may
// be nil when cfg.Kills is 0.
func New(cfg Config, backend func() (net.Conn, error), killer Killer) (*Proxy, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	if backend == nil {
		return nil, errors.New("chaos: proxy needs a backend dialer")
	}
	if cfg.Kills > 0 && killer == nil {
		return nil, errors.New("chaos: scheduled kills need a Killer")
	}
	p := &Proxy{
		cfg:     cfg,
		sched:   newSchedule(cfg),
		rec:     event.OrNop(cfg.Recorder),
		backend: backend,
		killer:  killer,
		conns:   make(map[net.Conn]struct{}),
	}
	p.sched.emit(p.rec)
	return p, nil
}

// WritePlan replays the full fault plan into rec in generation order. The
// emitted stream is a pure function of the proxy's Config, so two same-seed
// proxies write byte-identical plans — the determinism contract
// cmd/chaosharness asserts.
func (p *Proxy) WritePlan(rec event.Recorder) { p.sched.emit(rec) }

// Serve accepts client connections on l and relays each through the fault
// schedule until l closes. Like harmony.ServeWith it closes every live link
// and joins all forwarding goroutines before returning.
func (p *Proxy) Serve(l net.Listener) error {
	defer p.wg.Wait()
	defer p.closeConns()
	for {
		client, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		server, err := p.backend()
		if err != nil {
			// Backend down (mid-kill): refuse the link; the client's dial
			// succeeded but its first read fails, and its backoff retries
			// until the supervisor brings the server back.
			_ = client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			_ = server.Close()
			continue
		}
		link := p.links
		p.links++
		p.conns[client] = struct{}{}
		p.conns[server] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.forward(link, 0, client, server)
		go p.forward(link, 1, server, client)
	}
}

// Close severs every live link. Serve keeps accepting until its listener
// closes; callers close the listener first.
func (p *Proxy) Close() {
	p.closeConns()
	p.wg.Wait()
}

func (p *Proxy) closeConns() {
	p.mu.Lock()
	p.closed = true
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// drop unregisters and closes both ends of a link.
func (p *Proxy) drop(a, b net.Conn) {
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
	_ = a.Close()
	_ = b.Close()
}

// forward relays whole internal/frame envelopes src → dst, applying the
// planned fault for each frame ordinal. dir 0 is client→server (counted
// toward kill triggers), 1 is server→client. The goroutine exits when either
// side closes; both forwarders of a link share its fate because every fault
// that severs the link closes both connections.
//
// The client's PHWIRE1 or PHSYNC1 preamble is forwarded verbatim outside the
// fault schedule: it is connection negotiation, not a frame — the client
// writes it atomically with connect, so faulting it would model a failure
// the endpoints cannot experience and would shift every frame ordinal after
// it, breaking the same-seed plan-replay contract. Tuning and sync links
// share the envelope, so they are relayed and faulted alike. A link that
// opens with any other preamble is dropped.
func (p *Proxy) forward(link, dir int, src, dst net.Conn) {
	defer p.wg.Done()
	defer p.drop(src, dst)
	rd := bufio.NewReader(src)
	if dir == 0 {
		var magic [len(harmony.WireMagic)]byte
		if _, err := io.ReadFull(rd, magic[:]); err != nil {
			return
		}
		if string(magic[:]) != harmony.WireMagic && string(magic[:]) != feddb.SyncMagic {
			return
		}
		if _, err := dst.Write(magic[:]); err != nil {
			return
		}
	}
	for f := 0; ; f++ {
		// The proxy never checks CRCs — it is a transparent relay, and
		// deliberately broken frames (Truncate faults) are exactly what the
		// endpoints must detect themselves — but it holds length prefixes to
		// the endpoints' rules: one they would reject drops the link rather
		// than being buffered or misframed.
		msg, err := frame.ReadRaw(rd, frame.MaxPayload)
		if err != nil {
			// A partial final message is garbage mid-frame: forwarding it
			// would invent a truncation the plan never drew, so it is
			// discarded.
			return
		}
		pl := p.sched.frame(link, dir, f)
		switch pl.act {
		case Delay:
			time.Sleep(time.Duration(pl.delayMS * float64(time.Millisecond)))
			if _, err := dst.Write(msg); err != nil {
				return
			}
		case Drop:
			// One-way partition: the frame vanishes; the link lives on.
		case Dup:
			if _, err := dst.Write(msg); err != nil {
				return
			}
			if _, err := dst.Write(msg); err != nil {
				return
			}
		case Truncate:
			n := pl.bytes
			if n > len(msg) {
				n = len(msg)
			}
			_, _ = dst.Write(msg[:n])
			p.applied(link, dir, f, pl.act)
			return
		case Reset:
			p.applied(link, dir, f, pl.act)
			return
		default:
			if _, err := dst.Write(msg); err != nil {
				return
			}
		}
		if pl.act != Pass {
			p.applied(link, dir, f, pl.act)
		}
		if dir == 0 && pl.act != Drop {
			p.countClientFrame()
		}
	}
}

// applied mirrors one executed fault into the event stream.
func (p *Proxy) applied(link, dir, frame int, act Action) {
	p.rec.Record(event.ChaosApplied{Link: link, Dir: dirName(dir), Frame: frame, Action: act.String()})
}

// countClientFrame advances the kill trigger counter and fires any kill
// whose threshold the total just crossed. The kill runs on its own tracked
// goroutine so the link that tripped it keeps forwarding.
func (p *Proxy) countClientFrame() {
	p.mu.Lock()
	p.c2sTotal++
	var fire *kill
	var seq int
	if p.nextKill < len(p.sched.kills) && p.c2sTotal >= p.sched.kills[p.nextKill].afterFrames {
		k := p.sched.kills[p.nextKill]
		fire, seq = &k, p.nextKill
		p.nextKill++
	}
	p.mu.Unlock()
	if fire == nil {
		return
	}
	p.rec.Record(event.ChaosKill{Seq: seq, AfterFrames: fire.afterFrames, DownMS: fire.downMS, Applied: true})
	p.wg.Add(1)
	go func(downMS float64) {
		defer p.wg.Done()
		p.killer.Kill(downMS)
	}(fire.downMS)
}
