package harmony

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"paratune/internal/dist"
	"paratune/internal/event"
	"paratune/internal/feddb"
	"paratune/internal/space"
)

// cryptoSeed draws an RNG seed from the OS entropy source, so clients
// started in the same instant still jitter independently. The zero fallback
// only degrades jitter de-correlation, never correctness.
func cryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 1
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// wireParam is the checkpoint form of a space.Parameter: its kind is the
// wireKinds name. On PHWIRE1 a parameter's kind is its wireKinds byte.
type wireParam struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"`
	Lower  float64   `json:"lower,omitempty"`
	Upper  float64   `json:"upper,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

func toWireParams(params []space.Parameter) []wireParam {
	out := make([]wireParam, len(params))
	for i, p := range params {
		kind := p.Kind.String() // a kind outside wireKinds fails to restore
		if code, ok := kindByte(p.Kind); ok {
			kind = wireKinds[code].name
		}
		out[i] = wireParam{Name: p.Name, Kind: kind, Lower: p.Lower, Upper: p.Upper, Values: p.Values}
	}
	return out
}

func fromWireParams(ws []wireParam) ([]space.Parameter, error) {
	out := make([]space.Parameter, len(ws))
	for i, w := range ws {
		code, ok := kindCode(w.Kind)
		if !ok {
			return nil, fmt.Errorf("harmony: unknown parameter kind %q", w.Kind)
		}
		out[i] = space.Parameter{Name: w.Name, Kind: wireKinds[code].kind, Lower: w.Lower, Upper: w.Upper, Values: w.Values}
	}
	return out, nil
}

// request is one client message, the payload of one PHWIRE1 frame.
type request struct {
	Op      wireOp
	Session string
	Params  []space.Parameter
	// Seq is the client's frame sequence number: every frame put on the wire
	// (retries included — a resend is a new frame) carries the next value.
	// The server discards a frame whose sequence does not advance past the
	// connection's high-water mark — that is a duplicate injected in transit,
	// and answering it would desynchronise the response stream. A frame with
	// Seq 0 bypasses duplicate suppression.
	Seq uint64
	// N is the batch size for fetchn.
	N int
	// Reports carries the measurements of a reportn frame.
	Reports []ReportItem
}

// response is one server reply, the payload of one PHWIRE1 frame.
type response struct {
	OK bool
	// Error and Code describe a failure. A reportn reply that rejected items
	// stays OK and carries the last rejection's Error and Code.
	Error string
	// Code classifies structured errors: a code string from wireErrors.
	Code string
	// Point and Converged answer best. A register or reportn reply sets them
	// to the session's best and true exactly when the session's next fetch
	// would answer {best, tag 0, converged}, and leaves them empty otherwise.
	Point     []float64
	Value     float64
	Converged bool
	Stats     *SessionStats
	// Seq echoes the request's frame sequence so the client can discard
	// duplicated or stale response frames after transit faults.
	Seq uint64
	// Batch answers a fetchn request.
	Batch []FetchResult
	// Accepted, Refused, and Rejected classify a reportn frame's items.
	Accepted int
	Refused  int
	Rejected int
}

// errResponse builds a failure response, attaching the wireErrors code of
// the structured error class err belongs to, if any.
func errResponse(err error) response {
	r := response{Error: err.Error()}
	for _, e := range wireErrors {
		if errors.Is(err, e.err) {
			r.Code = e.code
			break
		}
	}
	return r
}

// ConnOptions sets transport deadlines for served connections. A deadline
// of timeout T is re-armed only when the one in force is more than T/64
// short of now+T, so a busy connection does not reset its timer on every
// request: each deadline lands between 63T/64 and T after the request.
type ConnOptions struct {
	// ReadTimeout is the per-request read deadline: a connection idle past it
	// is closed (the client reconnects with backoff). Default 5 minutes.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response write. Default 30 seconds.
	WriteTimeout time.Duration
}

// lazyDeadline is one connection deadline of timeout T, re-armed only when
// the one in force has fallen more than T/64 short of now+T. An idle
// connection is still cut between 63T/64 and T after its last arm check.
type lazyDeadline struct {
	timeout time.Duration
	at      time.Time // the deadline in force; zero before the first arm
}

// next returns the deadline to set and true when the one in force is too
// early, and false when it may stay (or the timeout is disabled).
func (d *lazyDeadline) next() (time.Time, bool) {
	if d.timeout <= 0 {
		return time.Time{}, false
	}
	want := time.Now().Add(d.timeout)
	if !d.at.IsZero() && want.Sub(d.at) <= d.timeout/64 {
		return time.Time{}, false
	}
	d.at = want
	return want, true
}

func (o *ConnOptions) normalise() {
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 5 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
}

// Serve accepts connections on l and dispatches PHWIRE1 requests to srv
// with default transport deadlines until l is closed. A connection that
// opens with the PHSYNC1 preamble is served by internal/feddb instead.
func Serve(l net.Listener, srv *Server) error {
	return ServeWith(l, srv, ConnOptions{})
}

// connTracker joins the per-connection goroutines ServeWith launches: every
// live connection is registered so shutdown can close it (unblocking its
// read loop), and the WaitGroup collects the goroutines before ServeWith
// returns, which the package's goroutine-leak check (internal/leakcheck)
// holds every test to.
type connTracker struct {
	wg sync.WaitGroup

	mu     sync.Mutex //paralint:lockrank 32
	closed bool
	conns  map[net.Conn]struct{}
}

// add registers conn, or reports false when the tracker is already closed
// (the caller must close the connection itself).
func (t *connTracker) add(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	if t.conns == nil {
		t.conns = make(map[net.Conn]struct{})
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *connTracker) remove(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// closeAll closes every live connection, unblocking their read loops, and
// refuses new registrations.
func (t *connTracker) closeAll() {
	t.mu.Lock()
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// ServeWith is Serve with explicit transport deadlines. Each connection is
// handled on its own goroutine; a malformed request or an expired deadline
// closes only that connection. When the listener closes, ServeWith closes
// every live connection and waits for all handler goroutines to drain
// before returning — no goroutine outlives the accept loop.
func ServeWith(l net.Listener, srv *Server, opts ConnOptions) error {
	opts.normalise()
	var tracker connTracker
	defer tracker.wg.Wait()
	defer tracker.closeAll()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !tracker.add(conn) {
			_ = conn.Close()
			continue
		}
		tracker.wg.Add(1)
		go handleConn(conn, srv, opts, &tracker)
	}
}

func handleConn(conn net.Conn, srv *Server, opts ConnOptions, tracker *connTracker) {
	defer tracker.wg.Done()
	defer tracker.remove(conn)
	defer conn.Close()
	readDL, writeDL := lazyDeadline{timeout: opts.ReadTimeout}, lazyDeadline{timeout: opts.WriteTimeout}
	if t, ok := readDL.next(); ok {
		_ = conn.SetReadDeadline(t)
	}
	codec, br, err := sniffServerCodec(conn)
	if err != nil {
		return
	}
	if codec == nil {
		// A federation peer, not a tuning client: hand the connection to the
		// anti-entropy server against the shared measurement database. A
		// server without a database has nothing to sync, so the connection
		// just closes.
		if srv.opts.DB != nil {
			//paralint:allow errdiscipline anti-entropy rounds are idempotent and retried
			_ = feddb.ServeConn(conn, br, feddb.ServeOptions{
				Store:        srv.opts.DB,
				ReadTimeout:  opts.ReadTimeout,
				WriteTimeout: opts.WriteTimeout,
			})
		}
		return
	}
	// lastSeq is this connection's frame high-water mark. A connection
	// carries one client (a Client owns its connection, and the chaos proxy
	// gives each client link its own backend connection), which never sends
	// the same sequence twice on it, so a frame whose non-zero sequence does
	// not advance past the mark was duplicated in transit. It is discarded
	// without a response: answering both copies would leave a stray
	// response desynchronising every later round trip.
	var lastSeq uint64
	// One request, one response and one fetchn grant serve every frame of
	// the connection: each frame is decoded, dispatched and answered before
	// the next is read.
	var (
		req   request
		resp  response
		grant []FetchResult
	)
	for {
		if t, ok := readDL.next(); ok {
			_ = conn.SetReadDeadline(t)
		}
		req = request{}
		if err := codec.readRequest(&req); err != nil {
			var bad *badRequestError
			if errors.As(err, &bad) {
				if t, ok := writeDL.next(); ok {
					_ = conn.SetWriteDeadline(t)
				}
				//paralint:allow errdiscipline best-effort error reply; the connection closes either way
				_ = codec.writeResponse(&response{OK: false, Error: "bad request: " + bad.Unwrap().Error()})
			}
			return
		}
		if req.Seq != 0 {
			if req.Seq <= lastSeq {
				continue
			}
			lastSeq = req.Seq
		}
		resp = dispatch(srv, &req, &grant)
		if !resp.OK && srv.closed.Load() {
			// A closing server drops the connection instead of answering
			// with a refusal it caused: the client's recovery rule then
			// reconnects and resends the request, reaching the restarted
			// server where there is one.
			return
		}
		resp.Seq = req.Seq
		if t, ok := writeDL.next(); ok {
			_ = conn.SetWriteDeadline(t)
		}
		if err := codec.writeResponse(&resp); err != nil {
			return
		}
	}
}

// dispatch routes one decoded request. A fetchn grant is built in *grant,
// which the caller reuses across frames (nil allocates a fresh one); the
// response aliases it until the next dispatch.
func dispatch(srv *Server, req *request, grant *[]FetchResult) response {
	switch req.Op {
	case opRegister:
		s, err := srv.register(req.Session, req.Params)
		if err != nil {
			return errResponse(err)
		}
		return convergedReply(s)
	case opFetchN:
		if grant == nil {
			grant = new([]FetchResult)
		}
		batch, err := srv.fetchN((*grant)[:0], req.Session, req.N)
		*grant = batch
		if err != nil {
			return errResponse(err)
		}
		if srv.opts.Recorder != nil {
			granted := 0
			for i := range batch {
				if batch[i].Tag != 0 {
					granted++
				}
			}
			srv.rec.Record(event.BatchFetch{Session: req.Session, Requested: req.N, Granted: granted})
		}
		return response{OK: true, Batch: batch}
	case opReportN:
		s, err := srv.session(req.Session)
		if err != nil {
			return errResponse(err)
		}
		res, err := s.reportN(req.Reports)
		if srv.opts.Recorder != nil {
			srv.rec.Record(event.BatchReport{
				Session: req.Session, Items: len(req.Reports),
				Accepted: res.Accepted, Rejected: res.Rejected, Refused: res.Refused,
			})
		}
		resp := convergedReply(s)
		resp.Accepted, resp.Refused, resp.Rejected = res.Accepted, res.Refused, res.Rejected
		if err != nil {
			rej := errResponse(err)
			resp.Error, resp.Code = rej.Error, rej.Code
		}
		return resp
	case opBest:
		p, v, conv, err := srv.Best(req.Session)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Point: p, Value: v, Converged: conv}
	case opStats:
		st, err := srv.Stats(req.Session)
		if err != nil {
			return errResponse(err)
		}
		return response{OK: true, Stats: &st, Converged: st.Converged}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// convergedReply is the success reply to a register or reportn that
// reached s. When s's own fetchN would answer {best, tag 0, converged}, the
// reply carries that answer in Point and Converged, so the client serves its
// next fetch of s without a round trip. The point is encoded straight from
// the session, not cloned: a converged session's best never changes.
func convergedReply(s *session) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.convergedLocked() {
		return response{OK: true}
	}
	return response{OK: true, Point: s.best, Converged: true}
}

// DialOptions configures connection retries and per-call deadlines.
type DialOptions struct {
	// Retries is the number of connection attempts per dial or reconnect,
	// and also the number of send attempts per round trip once a connection
	// keeps breaking; default 5.
	Retries int
	// Backoff is the initial retry delay, doubled per attempt with up to
	// 50% random jitter to avoid thundering herds; default 100ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth of the retry delay, so a long
	// outage costs bounded per-attempt waits instead of runaway sleeps;
	// default 30x Backoff.
	MaxBackoff time.Duration
	// Timeout bounds each request/response round trip; default 30s. Like
	// the server's, the deadline is re-armed only when the one in force is
	// more than Timeout/64 short, so a round trip gets at least 63/64 of it.
	Timeout time.Duration
	// Seed seeds the client's backoff-jitter RNG, making redial behaviour
	// reproducible; 0 (the default) draws an unpredictable seed from
	// crypto/rand so independently started clients de-correlate their
	// jitter. Tests and experiments set it explicitly.
	Seed int64
	// Wire must be "" or WireBinary: PHWIRE1 is the only client protocol.
	// The field stays only for perfbench/serve.go, which sets it.
	Wire Wire
	// DialFunc overrides how the client reaches the server — e.g. a chaos
	// MemListener's Dial, or a net.Pipe in benchmarks. nil dials addr over
	// TCP. Retries and backoff apply to it exactly as to TCP dialing.
	DialFunc func() (net.Conn, error)
}

func (o *DialOptions) normalise() {
	if o.Retries <= 0 {
		o.Retries = 5
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 30 * o.Backoff
	}
	if o.MaxBackoff < o.Backoff {
		o.MaxBackoff = o.Backoff
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
}

// Client is a TCP client for the harmony protocol, PHWIRE1. Safe for use by one
// goroutine at a time per method call (calls are serialised internally).
//
// Errors are classified before any retry: server-side application errors
// (invalid_value, unknown_session, a space mismatch) are permanent and fail
// fast — redialling cannot change the answer — while connection-level
// failures (EOF, reset, expired deadline, garbage in the response stream)
// are transient and retried on a fresh connection with capped, jittered
// exponential backoff. Every frame carries a sequence number, so the server
// can discard frames duplicated in transit. A report names the sample slot
// its grant named, so a retry that reaches the server twice finds its slot
// filled and is counted once; a reconnect just resends the failed request
// on the fresh connection. A register or report reply that finds its
// session converged carries the session's answer, and the next Fetch or
// FetchN of that session returns it without a round trip.
type Client struct {
	addr string      // immutable after DialWith
	opts DialOptions // immutable after DialWith

	mu         sync.Mutex //paralint:lockrank 34
	conn       net.Conn
	dl         lazyDeadline // conn's read and write deadline
	codec      *binClientCodec
	rng        *rand.Rand
	seq        uint64 // frame sequence; one per frame put on the wire
	reconnects int    // connections re-established after a loss
	// answers holds, per session, the best point the last register or
	// reportn reply carried as the session's converged answer, until a
	// Fetch or FetchN of the session takes it. Bounded by
	// maxConvergedAnswers.
	answers map[string]space.Point
	// req and resp are the frame in flight: one round trip at a time, so
	// every call reuses them.
	req  request
	resp response
}

// maxConvergedAnswers bounds a client's table of converged answers; past it
// the table restarts empty, which only forfeits the round trips the dropped
// answers would have saved.
const maxConvergedAnswers = 1024

// Dial connects to a harmony server with default retry/backoff options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects to a harmony server, retrying the initial connection
// with capped exponential backoff per opts.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	opts.normalise()
	if opts.Wire != "" && opts.Wire != WireBinary {
		return nil, fmt.Errorf("harmony: unknown wire protocol %q", opts.Wire)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = cryptoSeed()
	}
	c := &Client{
		addr: addr,
		opts: opts,
		rng:  dist.NewRNG(seed),
	}
	if err := c.reconnectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// backoffLocked sleeps the current delay plus up to 50% jitter, then doubles
// it up to the configured cap; caller holds c.mu.
func (c *Client) backoffLocked(d *time.Duration) {
	time.Sleep(*d + time.Duration(c.rng.Int63n(int64(*d)/2+1)))
	*d *= 2
	if *d > c.opts.MaxBackoff {
		*d = c.opts.MaxBackoff
	}
}

// reconnectLocked dials with capped backoff and jitter; caller holds c.mu
// (or is the constructor).
func (c *Client) reconnectLocked() error {
	c.dropConnLocked()
	backoff := c.opts.Backoff
	var lastErr error
	for attempt := 0; attempt < c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.backoffLocked(&backoff)
		}
		conn, err := c.dialOnceLocked()
		if err != nil {
			lastErr = err
			continue
		}
		// Announce PHWIRE1 before the first frame; the server reads this
		// preamble to tell a tuning client from a sync peer.
		if c.opts.Timeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
		}
		if _, err := io.WriteString(conn, WireMagic); err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		c.conn, c.codec = conn, newBinClientCodec(conn)
		return nil
	}
	return fmt.Errorf("harmony: dial %s failed after %d attempts: %w", c.addr, c.opts.Retries, lastErr)
}

// dialOnceLocked makes one connection attempt via DialFunc or TCP.
func (c *Client) dialOnceLocked() (net.Conn, error) {
	if c.opts.DialFunc != nil {
		return c.opts.DialFunc()
	}
	return net.DialTimeout("tcp", c.addr, c.opts.Timeout)
}

// dropConnLocked closes and forgets the current connection, if any.
func (c *Client) dropConnLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.dl = lazyDeadline{timeout: c.opts.Timeout}
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Reconnects returns how many times the client re-established a lost
// connection. A non-zero count means it survived at least one connection
// loss.
func (c *Client) Reconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// appError marks a server-side (application-level) failure: the request was
// delivered and the server answered no. Retrying cannot change the answer,
// so these are permanent — they must never trigger a reconnect loop. It
// unwraps to the sentinel its response code names in wireErrors, so
// errors.Is(err, ErrUnknownSession) holds as it would in-process; a code
// outside the table unwraps to nothing.
type appError struct {
	msg string
	err error
}

func (e *appError) Error() string { return e.msg }
func (e *appError) Unwrap() error { return e.err }

// newAppError classifies a failure response by its code.
func newAppError(resp *response) *appError {
	ae := &appError{msg: resp.Error}
	for _, e := range wireErrors {
		if e.code == resp.Code {
			ae.err = e.err
			break
		}
	}
	return ae
}

// IsPermanent reports whether an error returned by a Client method is a
// server-side application error: the request was delivered and rejected, so
// retrying it verbatim is pointless. Transport failures are transient and
// the client already retried them internally before surfacing one.
func IsPermanent(err error) bool {
	var ae *appError
	return errors.As(err, &ae)
}

// roundTrip sends req and returns the server's answer; the response's
// slices are freshly decoded and belong to the caller.
func (c *Client) roundTrip(req request) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Clearing the frame afterwards keeps no reference to the caller's
	// report items or to the response's slices.
	defer func() { c.req, c.resp = request{}, response{} }()
	c.req = req
	var lastErr error
	backoff := c.opts.Backoff
	attempts := c.opts.Retries
	if attempts < 2 {
		attempts = 2
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.backoffLocked(&backoff)
		}
		if c.conn == nil {
			if err := c.reconnectLocked(); err != nil {
				// The full dial budget is spent; the server is unreachable.
				return response{}, err
			}
			c.reconnects++
		}
		err := c.sendLocked(&c.req)
		if err == nil {
			if !c.resp.OK {
				return response{}, newAppError(&c.resp)
			}
			c.keepAnswerLocked(&c.req)
			return c.resp, nil
		}
		// Connection-level failure: drop the connection and retry on a fresh
		// one (fetches are idempotent, a resent report finds its slot
		// filled, and every resend is a new frame sequence).
		lastErr = err
		c.dropConnLocked()
	}
	return response{}, fmt.Errorf("harmony: %s failed after %d attempts: %w", req.Op, attempts, lastErr)
}

// keepAnswerLocked records what a successful register or reportn reply says
// of its session: the converged answer it carries, or, when it carries none,
// that an answer kept from an earlier reply is stale. Caller holds c.mu.
func (c *Client) keepAnswerLocked(req *request) {
	if req.Op != opRegister && req.Op != opReportN {
		return
	}
	if !c.resp.Converged {
		delete(c.answers, req.Session)
		return
	}
	if c.answers == nil || len(c.answers) >= maxConvergedAnswers {
		c.answers = make(map[string]space.Point)
	}
	c.answers[req.Session] = space.Point(c.resp.Point)
}

// takeAnswer removes and returns the converged answer kept for session.
func (c *Client) takeAnswer(session string) (space.Point, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.answers[session]
	if ok {
		delete(c.answers, session)
	}
	return p, ok
}

// sendLocked puts one frame on the wire and reads its response into c.resp,
// skipping response frames that transit faults duplicated (their echoed
// sequence is below the frame just sent). Caller holds c.mu; req.Seq is
// assigned here — every send attempt is a fresh frame.
func (c *Client) sendLocked(req *request) error {
	c.seq++
	req.Seq = c.seq
	if t, ok := c.dl.next(); ok {
		_ = c.conn.SetDeadline(t)
	}
	if err := c.codec.send(req); err != nil {
		return err
	}
	// Bounded skip of stale response frames: each is at most one duplicated
	// response; a stream that keeps failing to produce our sequence is
	// treated as a broken connection.
	for reads := 0; reads < 16; reads++ {
		c.resp = response{}
		if err := c.codec.recv(&c.resp); err != nil {
			return err
		}
		if c.resp.Seq != 0 && c.resp.Seq < req.Seq {
			continue // stale or duplicated response frame
		}
		if c.resp.Seq > req.Seq {
			return fmt.Errorf("harmony: response stream desynchronised (got seq %d, want %d)", c.resp.Seq, req.Seq)
		}
		return nil
	}
	return errors.New("harmony: response stream flooded with stale frames")
}

// Register creates or joins a session. When the session has converged by
// the time the server replies (a fully warm session converges inside
// Register), the reply carries its answer, and the next Fetch or FetchN of
// the session returns that answer without a round trip.
func (c *Client) Register(session string, params []space.Parameter) error {
	_, err := c.roundTrip(request{Op: opRegister, Session: session, Params: params})
	return err
}

// Fetch obtains the next configuration to run: the one result of
// FetchN(session, 1). When the last register, report or reportn reply for
// the session found it converged, Fetch returns that answer (the best point,
// Tag 0, Converged) once, without a round trip. It is the answer the server
// would give, since a converged session's answer never changes. The one
// difference: a session that expires, or is lost to a server restart without
// a checkpoint, between that reply and this call is still answered here, and
// the loss surfaces on the next call.
func (c *Client) Fetch(session string) (FetchResult, error) {
	batch, err := c.FetchN(session, 1)
	if err != nil {
		return FetchResult{}, err
	}
	if len(batch) == 0 {
		return FetchResult{}, errors.New("harmony: server returned no work")
	}
	return batch[0], nil
}

// Report sends one measurement for the sample slot tag names, as a one-item
// ReportN. A reconnect retry finds the slot filled with the same value and
// is not double-counted. A rejected measurement (an invalid value, a tag
// never issued) returns the server's error, permanent as IsPermanent says.
func (c *Client) Report(session string, tag uint64, value float64) error {
	resp, err := c.roundTrip(request{Op: opReportN, Session: session, Reports: []ReportItem{{Tag: tag, Value: value}}})
	if err == nil && resp.Rejected > 0 {
		err = newAppError(&resp)
	}
	return err
}

// FetchN obtains up to n units of work in one round trip, under the grant
// rule of Server.FetchN: every sample a batch still needs, pass-major, up to
// n. When no candidate work is outstanding the single returned entry is the
// best-known configuration with Tag 0, exactly like Fetch, and like Fetch
// it is answered locally, once, when the last register, report or reportn
// reply for the session found it converged.
//
// The grants for one candidate in one reply share a point, decoded once, so
// treat the points as read-only.
func (c *Client) FetchN(session string, n int) ([]FetchResult, error) {
	if p, ok := c.takeAnswer(session); ok {
		return []FetchResult{{Point: p, Converged: true}}, nil
	}
	resp, err := c.roundTrip(request{Op: opFetchN, Session: session, N: n})
	if err != nil {
		return nil, err
	}
	return resp.Batch, nil
}

// ReportN sends a batch of measurements in one round trip. Each item fills
// the slot its tag names, so a reconnect retry of the whole frame cannot
// double-count any measurement. The result classifies every item; a Refused
// count above zero means the frame carried more than the server's per-frame
// cap of 1024 items, and those past it were not applied.
func (c *Client) ReportN(session string, items []ReportItem) (BatchReportResult, error) {
	resp, err := c.roundTrip(request{Op: opReportN, Session: session, Reports: items})
	if err != nil {
		return BatchReportResult{}, err
	}
	return BatchReportResult{
		Accepted: resp.Accepted,
		Rejected: resp.Rejected,
		Refused:  resp.Refused,
	}, nil
}

// Stats fetches a monitoring snapshot of the session.
func (c *Client) Stats(session string) (SessionStats, error) {
	resp, err := c.roundTrip(request{Op: opStats, Session: session})
	if err != nil {
		return SessionStats{}, err
	}
	if resp.Stats == nil {
		return SessionStats{}, errors.New("harmony: server returned no stats")
	}
	return *resp.Stats, nil
}

// Best returns the best-known configuration.
func (c *Client) Best(session string) (space.Point, float64, bool, error) {
	resp, err := c.roundTrip(request{Op: opBest, Session: session})
	if err != nil {
		return nil, 0, false, err
	}
	return space.Point(resp.Point), resp.Value, resp.Converged, nil
}

// MeasureFunc runs one application iteration at the given configuration and
// returns its measured time.
type MeasureFunc func(space.Point) (float64, error)

// RunLoop drives the standard client protocol until the session converges or
// maxIters fetches have been issued: fetch a configuration, measure it, and
// report the time (tag-0 best-configuration runs are measured but not
// reported). It returns the final best configuration. This is the loop every
// SPMD process embeds; see cmd/harmonyclient for a complete program.
func RunLoop(c *Client, session string, measure MeasureFunc, maxIters int) (space.Point, error) {
	if measure == nil {
		return nil, errors.New("harmony: RunLoop needs a measure function")
	}
	if maxIters <= 0 {
		maxIters = 1 << 30
	}
	for i := 0; i < maxIters; i++ {
		fr, err := c.Fetch(session)
		if err != nil {
			return nil, err
		}
		if fr.Converged {
			best, _, _, err := c.Best(session)
			return best, err
		}
		y, err := measure(fr.Point)
		if err != nil {
			return nil, fmt.Errorf("harmony: measurement failed: %w", err)
		}
		if fr.Tag != 0 {
			if err := c.Report(session, fr.Tag, y); err != nil {
				// A failure that persists surfaces on the next Fetch.
				continue
			}
		}
	}
	return nil, errors.New("harmony: iteration cap reached before convergence")
}
