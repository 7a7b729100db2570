package target

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	conduit "conduit"
	"conduit/internal/wire"
	"conduit/internal/workloads"
)

// Options configures one target process.
type Options struct {
	// Name identifies the target in Hello and Snapshot frames.
	Name string
	// Scale is the workload scale factor.
	Scale int
	// Shards registers every workload as an N-device cluster when > 1.
	Shards int
	// Mix selects the registered workloads; empty registers the whole
	// evaluation suite.
	Mix []string
	// Serve tunes the wrapped conduit.Server (pools, batching, chaos,
	// recovery ladder).
	Serve conduit.ServeOptions
	// FaultLogPath, when set, writes the injected-fault schedule as
	// JSONL when the target drains.
	FaultLogPath string
}

// Server is one running target: a conduit.Server behind a TCP
// listener speaking the framed protocol.
type Server struct {
	opts  Options
	srv   *conduit.Server
	names []string // registered workloads, sorted
	ln    net.Listener

	// submit is srv.Dispatch; a field so tests can hold requests in flight.
	submit func(req conduit.Request, notify, inline func(*conduit.Response)) (bool, error)

	mu       sync.Mutex
	conns    map[net.Conn]bool
	draining bool
	inflight int        // requests submitted whose response is not yet written
	idle     *sync.Cond // on mu; signalled when inflight drops to zero

	connWG sync.WaitGroup // every connection's reader and writer
	done   chan struct{}  // closed when the drain has fully completed
}

// New registers the configured workloads on a fresh conduit.Server and
// then binds the listener, so a dialler is refused, not stalled, while the
// target registers. Callers then run Serve (blocking) and eventually Drain.
func New(listen string, opts Options) (*Server, error) {
	s, err := newServer(opts)
	if err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", listen); err != nil {
		s.srv.Drain()
		return nil, err
	}
	return s, nil
}

// NewOn is New on a listener the caller made, which the target owns from
// then on: Drain, or an error here, closes it. Any listener works — a
// test's in-memory one too.
func NewOn(ln net.Listener, opts Options) (*Server, error) {
	s, err := newServer(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s.ln = ln
	return s, nil
}

// newServer is a target with its workloads registered and no listener yet.
func newServer(opts Options) (*Server, error) {
	opts.Name = cmp.Or(opts.Name, "target")
	opts.Scale, opts.Shards = max(opts.Scale, 1), max(opts.Shards, 1)
	names, err := workloads.Resolve(opts.Mix)
	if err != nil {
		return nil, fmt.Errorf("target: %w", err)
	}
	srv := conduit.NewServer(conduit.DefaultConfig(), opts.Serve)
	for _, name := range names {
		if err := srv.RegisterWorkload(name, opts.Scale, opts.Shards); err != nil {
			srv.Drain()
			return nil, fmt.Errorf("target: %w", err)
		}
	}
	sort.Strings(names)
	s := &Server{
		opts:   opts,
		srv:    srv,
		names:  names,
		submit: srv.Dispatch,
		conns:  make(map[net.Conn]bool),
		done:   make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	return s, nil
}

// Addr is the bound listen address (resolves ":0" for harnesses).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Workloads lists the registered workload names, sorted.
func (s *Server) Workloads() []string { return append([]string(nil), s.names...) }

// Serve accepts connections until Drain closes the listener. It
// returns after the drain has fully completed: every in-flight request
// answered, every pool closed, every connection torn down.
func (s *Server) Serve() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			break // listener closed by Drain
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
	<-s.done
	s.connWG.Wait()
}

// Drain performs the graceful shutdown: stop accepting, reject new
// requests with CodeDraining, wait out in-flight executions, close
// every device pool, persist the fault log if configured, and finally
// close every connection. Idempotent; concurrent callers all block
// until the one drain completes.
func (s *Server) Drain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		<-s.done
		return
	}
	s.ln.Close()
	// Drain the engine first: in-flight requests complete, and their
	// responses are written or queued for their connections' writers;
	// waiting out inflight then guarantees those writes happened before
	// any connection is closed.
	s.srv.Drain()
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
	if s.opts.FaultLogPath != "" {
		if log := s.srv.FaultLog(); log != nil {
			// Best effort: a target dying on a full disk should still
			// finish its drain.
			_ = conduit.WriteFaultLog(s.opts.FaultLogPath, log)
		}
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	close(s.done)
}

// PoolRows reports the server's device-pool counters as wire rows —
// after Drain they are the "no leaked forks" evidence the DrainAck
// carries.
func (s *Server) PoolRows() []wire.PoolRow { return WirePools(s.srv.PoolStats()) }

// conn is one connection. Its reader (handleConn) reads and dispatches
// frames and, while the socket is free — nothing queued, no write in
// progress — writes their answers itself, including the response to a
// request the engine served on it (Server.Dispatch). Everything else goes
// through the outbox to one writer goroutine (writeLoop), so an engine
// worker only appends to a slice and never blocks on the socket.
type conn struct {
	s      *Server
	raw    net.Conn
	rc     syscall.RawConn         // raw's descriptor, if it has one: the reader writes through it
	notify func(*conduit.Response) // c.complete, made once for every request
	inline func(*conduit.Response) // c.reply, made once
	try    func(fd uintptr) bool   // c.writeNow, made once

	mu      sync.Mutex
	wake    sync.Cond  // on mu: the outbox filled, the socket came free, or the reader finished
	outbox  []outbound // frames not yet handed to a pass
	writing bool       // a pass owns the socket and the fields below
	done    bool       // the reader finished: flush the outbox, then exit
	closed  bool       // the writer exited: owed responses are released unwritten

	batch  []outbound    // the frames of the pass in progress
	buf    []byte        // their encoding; between passes, what the reader left unwritten
	owed   int           // the responses buf owes
	failed bool          // a write failed or the codec refused a frame: the socket is closed
	resp   wire.Response // each completion is projected into resp and res
	res    wire.Result
	wrote  int // what writeNow wrote, and its error
	werr   error
}

// outbound is one frame owed to the peer: a frame the reader built, or —
// frame nil — a completion, a copy of the owed response (wire ID in
// Request.Tag), projected (project) when it is written.
type outbound struct {
	frame wire.Frame
	resp  conduit.Response
}

// complete is the connection's notify: it queues a copy of the lent response.
func (c *conn) complete(resp *conduit.Response) { c.send(outbound{resp: *resp}) }

// reply is the connection's inline notify, run on the reader that served
// the request: it posts a copy of the lent response.
func (c *conn) reply(resp *conduit.Response) { c.post(outbound{resp: *resp}) }

// send queues o for the writer. Once the writer has exited, a completion
// is released on the spot and anything else is dropped: the peer is gone.
func (c *conn) send(o outbound) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if o.frame == nil {
			c.s.release(1)
		}
		return
	}
	c.outbox = append(c.outbox, o)
	c.mu.Unlock()
	c.wake.Signal()
}

// post is send for the reader: if the socket is free, the reader writes o
// itself, so its bytes neither overtake the queue nor interleave with the
// writer's; it then wakes the writer for whatever is left.
func (c *conn) post(o outbound) {
	c.mu.Lock()
	free := !c.writing && len(c.outbox) == 0 && len(c.buf) == 0
	c.outbox = append(c.outbox, o)
	if free {
		c.pass(false)
	}
	left := len(c.outbox) > 0 || len(c.buf) > 0
	c.mu.Unlock()
	if left {
		c.wake.Signal()
	}
}

// finish tells the writer the reader is done: no frame but completions
// will follow.
func (c *conn) finish() {
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
	c.wake.Signal()
}

// writeLoop is the connection's writer: once the socket is free it makes
// a pass over whatever is left. It exits, closing the socket, once the
// reader has finished and nothing is left.
func (c *conn) writeLoop() {
	defer c.s.connWG.Done()
	defer c.raw.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for c.writing || len(c.outbox) == 0 && len(c.buf) == 0 && !c.done {
			c.wake.Wait()
		}
		if len(c.outbox) == 0 && len(c.buf) == 0 { // the reader is done and nothing is left
			c.closed = true
			return
		}
		c.pass(true)
	}
}

// pass takes every frame queued, encodes them after whatever the last
// pass left unwritten, writes, and releases the responses they owed only
// once all of it is written, so a Drain that finds nothing owed knows it
// was all written. The writer's pass (wait) writes everything. The
// reader's writes only what the socket takes at once and leaves the rest
// to the writer, so a peer that stops reading cannot stall the reader —
// nor, through the slot an inline request holds, the engine. After a
// write error, or a frame the codec refuses (its peer would wait for it
// forever), pass closes the socket, which stops the reader too, and this
// and every later pass release what they take without encoding it. The
// caller holds mu and found the socket free; pass owns it until it
// returns, with mu held again.
func (c *conn) pass(wait bool) {
	c.batch, c.outbox = c.outbox, c.batch[:0]
	c.writing = true
	c.mu.Unlock()
	failed := c.failed
	for i := range c.batch {
		o := &c.batch[i]
		if o.frame == nil {
			c.owed++
		}
		if !c.failed {
			c.failed = c.encode(o) != nil
		}
	}
	clear(c.batch) // hold no response while the slice waits to be reused
	if !c.failed {
		c.failed = c.write(wait) != nil
	}
	if c.failed {
		if !failed {
			c.raw.Close()
		}
		c.buf = c.buf[:0]
	}
	if len(c.buf) == 0 {
		c.s.release(c.owed)
		c.owed = 0
	}
	c.mu.Lock()
	c.writing = false
}

// encode appends o's frame to buf, a completion projected first.
func (c *conn) encode(o *outbound) (err error) {
	f := o.frame
	if f == nil {
		project(&c.resp, &c.res, o.resp.Request.Tag, &o.resp, o.resp.Err)
		f = &c.resp
	}
	c.buf, err = wire.AppendFrame(c.buf, f)
	return err
}

// write writes buf, or with wait false what of it the socket takes at
// once, and keeps in buf what it did not write. A connection with no
// descriptor (an in-memory one) has no write that returns early, so on
// it the reader waits as the writer does.
func (c *conn) write(wait bool) error {
	var n int
	var err error
	if wait || c.rc == nil {
		n, err = c.raw.Write(c.buf)
	} else if err = c.rc.Write(c.try); err == nil {
		n, err = c.wrote, c.werr
	}
	c.buf = c.buf[:copy(c.buf, c.buf[n:])]
	return err
}

// writeNow is one write(2) of buf on the connection's descriptor. A full
// socket buffer, or a signal, writes nothing; it never waits for room.
func (c *conn) writeNow(fd uintptr) bool {
	n, err := syscall.Write(int(fd), c.buf)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		n, err = 0, nil
	}
	c.wrote, c.werr = max(n, 0), err
	return true
}

func (s *Server) handleConn(raw net.Conn) {
	defer s.connWG.Done()
	c := &conn{s: s, raw: raw}
	c.wake.L = &c.mu
	c.notify, c.inline, c.try = c.complete, c.reply, c.writeNow
	// With no descriptor (an error leaves rc nil too) the reader's writes
	// wait, as on an in-memory connection.
	if sc, ok := raw.(syscall.Conn); ok {
		c.rc, _ = sc.SyscallConn()
	}
	s.connWG.Add(1)
	go c.writeLoop()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
		c.finish()
	}()
	c.post(outbound{frame: wire.Hello{
		Target:    s.opts.Name,
		Shards:    int64(s.opts.Shards),
		Workloads: s.names,
	}})
	r := wire.NewReader(raw)
	var req wire.Request // every request is read into req
	for {
		f, err := r.ReadInto(&req)
		if err != nil {
			// Peer gone, protocol violation, or drain closed us: what is
			// still queued has nobody to read it.
			raw.Close()
			return
		}
		switch fr := f.(type) {
		case *wire.Request:
			// A peer that sent more than this frame is pipelining: its
			// request queues, so the reader reads on.
			s.handleRequest(c, *fr, r.Buffered() == 0)
		case wire.SnapshotReq:
			c.post(outbound{frame: wire.Snapshot{ID: fr.ID, Target: s.opts.Name, Samples: s.srv.Metrics()}})
		case wire.Drain:
			// Unregister this connection first so Drain's teardown loop
			// does not close it out from under the ack; the writer closes
			// it once the ack is written.
			s.mu.Lock()
			delete(s.conns, raw)
			s.mu.Unlock()
			s.Drain()
			c.post(outbound{frame: wire.DrainAck{ID: fr.ID, Pools: s.PoolRows()}})
			return
		default:
			// Targets never accept Hello/Response/Snapshot/DrainAck; a
			// peer sending one is broken, so hang up.
			raw.Close()
			return
		}
	}
}

// handleRequest validates and dispatches one request. When idle (the
// reader holds nothing more to read) and a one-slot engine is too, the
// engine serves it on the reader, whose reply writes the response;
// otherwise the connection's notify runs on the engine worker that served
// it and only queues a copy of the response for the connection's writer.
func (s *Server) handleRequest(c *conn, req wire.Request, idle bool) {
	if code, msg := s.validate(req); code != wire.CodeOK {
		c.post(outbound{frame: wire.Response{ID: req.ID, Code: code, Error: msg}})
		return
	}
	// Count the response owed before submitting: a Drain that runs between
	// Submit returning and the response being queued must still wait for
	// it, or an executed request's response would never reach the socket
	// (and the router would retry it elsewhere: executed and billed twice).
	if !s.begin() {
		c.post(outbound{frame: WireResponse(req.ID, nil, conduit.ErrDraining)})
		return
	}
	inline := c.inline
	if !idle {
		inline = nil
	}
	_, err := s.submit(conduit.Request{
		Tenant:   req.Tenant,
		Workload: req.Workload,
		Policy:   req.Policy,
		Deadline: time.Duration(req.DeadlineNS),
		Trace:    req.Trace,
		Tag:      req.ID,
	}, c.notify, inline)
	if err != nil {
		// Shed at admission or draining: never executed, so nothing is
		// owed; answered like a request refused before it was counted.
		s.release(1)
		c.post(outbound{frame: WireResponse(req.ID, nil, err)})
	}
}

// begin counts one owed response unless the drain has begun; release
// gives back n once they are written or their peer is gone. Both order
// against Drain through mu, so Drain's wait sees every request that was
// not refused.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

func (s *Server) release(n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.inflight -= n
	if s.inflight == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// validate rejects requests the protocol can see are wrong before they
// touch the serve engine (and its tenant accounting): unknown
// workloads and policies, and shard-sets that do not name exactly the
// shards this target owns. The shard-set field is placement metadata —
// a future router may split a request across partial owners, but a
// current target serves all its shards or none.
func (s *Server) validate(req wire.Request) (wire.Code, string) {
	if !s.serves(req.Workload) {
		return wire.CodeBadRequest, fmt.Sprintf("target %s: workload %q not registered", s.opts.Name, req.Workload)
	}
	if !conduit.KnownPolicy(req.Policy) {
		return wire.CodeBadRequest, fmt.Sprintf("target %s: unknown policy %q", s.opts.Name, req.Policy)
	}
	if len(req.Shards) > 0 {
		if len(req.Shards) != s.opts.Shards {
			return wire.CodeBadRequest, fmt.Sprintf("target %s: partial shard-set (%d of %d) unsupported",
				s.opts.Name, len(req.Shards), s.opts.Shards)
		}
		seen := make(map[uint32]bool, len(req.Shards))
		for _, sh := range req.Shards {
			if int(sh) >= s.opts.Shards || seen[sh] {
				return wire.CodeBadRequest, fmt.Sprintf("target %s: bad shard-set entry %d", s.opts.Name, sh)
			}
			seen[sh] = true
		}
	}
	return wire.CodeOK, ""
}

func (s *Server) serves(workload string) bool {
	i := sort.SearchStrings(s.names, workload)
	return i < len(s.names) && s.names[i] == workload
}

// ---- projections shared with the equivalence harness ----

// WireResponse projects one served response (or admission error) onto
// its outcome capsule. The projection keeps only deterministic fields —
// simulated elapsed time, energy, recovery accounting, the result
// summary, and the sampled spans' simulated timeline — so the capsule
// for a request is identical whether the serving engine ran in this
// process or across the wire, which is the identity wiretest pins.
func WireResponse(id uint64, resp *conduit.Response, err error) (out wire.Response) {
	project(&out, new(wire.Result), id, resp, err)
	return out
}

// project is WireResponse into *out and *res, reusing res's counters.
func project(out *wire.Response, res *wire.Result, id uint64, resp *conduit.Response, err error) {
	*out = wire.Response{ID: id}
	if resp != nil {
		out.ElapsedSimNS = int64(resp.Outcome.Elapsed)
		out.EnergyJ = resp.Outcome.EnergyJ
		out.Recovery = resp.Outcome.Recovery
		// Spans ride home on error responses too: a failed request's
		// retry and fault events are exactly what the trace is for.
		out.Spans = resp.Trace.Spans()
	}
	if err != nil {
		out.Code = codeFor(err)
		msg := err.Error()
		if msg == "" {
			msg = "target: unspecified error"
		}
		if len(msg) > wire.MaxString {
			msg = msg[:wire.MaxString]
		}
		out.Error = msg
		return
	}
	r := conduit.ResultOf(resp)
	if r == nil {
		out.Code = wire.CodeError
		out.Error = "target: response carried no result"
		return
	}
	*res = wire.Result{
		Policy:          r.Policy,
		ComputeEnergyJ:  r.ComputeEnergy,
		MovementEnergyJ: r.MovementEnergy,
		OverheadNS:      int64(r.OverheadTime),
		Decisions:       int64(len(r.Decisions)),
		Counters:        res.Counters[:0],
	}
	if r.InstLatencies != nil {
		res.InstCount = int64(r.InstLatencies.Count())
		res.InstMeanNS = int64(r.InstLatencies.Mean())
	}
	if r.Counters != nil {
		res.Counters = slices.Grow(res.Counters, r.Counters.Len())
		r.Counters.Each(func(name string, v int64) {
			res.Counters = append(res.Counters, wire.Counter{Name: name, Value: v})
		})
	}
	out.Code = wire.CodeOK
	out.Result = res
}

// codeFor maps the serving tier's typed errors onto response codes.
func codeFor(err error) wire.Code {
	switch {
	case errors.Is(err, conduit.ErrOverloaded):
		return wire.CodeOverloaded
	case errors.Is(err, conduit.ErrDeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, conduit.ErrDraining):
		return wire.CodeDraining
	case errors.Is(err, conduit.ErrCircuitOpen):
		return wire.CodeCircuitOpen
	}
	return wire.CodeError
}

// WirePools projects the pool-stats map onto name-sorted wire rows.
func WirePools(stats map[string]conduit.PoolStats) []wire.PoolRow {
	if len(stats) == 0 {
		return nil // canonical: matches what decoding an empty list yields
	}
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]wire.PoolRow, 0, len(names))
	for _, name := range names {
		p := stats[name]
		rows = append(rows, wire.PoolRow{
			Name:        name,
			Preforked:   p.Preforked,
			Hits:        p.Hits,
			Misses:      p.Misses,
			Quarantined: p.Quarantined,
			Repairs:     p.Repairs,
			Idle:        int64(p.Idle),
			Closed:      p.Closed,
		})
	}
	return rows
}
