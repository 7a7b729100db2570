package target

import (
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	conduit "conduit"
	"conduit/internal/router"
	"conduit/internal/wire"
)

// newTarget starts a one-workload target on a loopback port and returns
// it with a connected peer that has consumed the Hello frame. prepare
// installs the test's seams before any serving goroutine exists.
func newTarget(t *testing.T, prepare func(*Server)) (*Server, *peer) {
	t.Helper()
	s, err := New("127.0.0.1:0", Options{Name: "t0", Mix: []string{"jacobi-1d"}})
	if err != nil {
		t.Fatal(err)
	}
	prepare(s)
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	t.Cleanup(func() { s.Drain(); <-served })
	return s, dial(t, s)
}

// peer is the test's end of one connection.
type peer struct {
	net.Conn
	r *wire.Reader
}

func dial(t *testing.T, s *Server) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &peer{Conn: conn, r: wire.NewReader(conn)}
	if f := read(t, p); f.(wire.Hello).Target != "t0" {
		t.Fatalf("greeting = %+v, want Hello from t0", f)
	}
	return p
}

func read(t *testing.T, p *peer) wire.Frame {
	t.Helper()
	f, err := p.r.ReadFrame()
	if err != nil {
		t.Fatalf("reading frame: %v", err)
	}
	return f
}

func send(t *testing.T, p *peer, f wire.Frame) {
	t.Helper()
	b, err := wire.Encode(f)
	if err == nil {
		_, err = p.Write(b)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func request(t *testing.T, p *peer, id uint64) {
	t.Helper()
	send(t, p, wire.Request{ID: id, Tenant: "t", Workload: "jacobi-1d", Policy: "Conduit"})
}

// held replaces the target's submit seam with one that admits every
// request and hands its completion to the test, so requests stay in
// flight for exactly as long as the test wants.
type held struct{ notifies chan func(*conduit.Response) }

func hold(s *Server, n int) held {
	h := held{notifies: make(chan func(*conduit.Response), n)}
	s.submit = func(_ conduit.Request, notify func(*conduit.Response)) error {
		h.notifies <- notify
		return nil
	}
	return h
}

// take waits until n requests are held and returns their completions.
func (h held) take(n int) []func(*conduit.Response) {
	notifies := make([]func(*conduit.Response), n)
	for i := range notifies {
		notifies[i] = <-h.notifies
	}
	return notifies
}

// answer completes the oldest held request.
func (h held) answer() { expire(<-h.notifies) }

// expire completes a request with a deadline expiry (a response that
// needs no RunResult), on the calling goroutine as an engine worker
// would.
func expire(notify func(*conduit.Response)) {
	notify(&conduit.Response{Err: conduit.ErrDeadlineExceeded})
}

// closeSignal tells the test when Drain has closed the listener — which
// it does only after marking the target draining.
type closeSignal struct {
	net.Listener
	closed chan struct{}
}

func (l closeSignal) Close() error {
	err := l.Listener.Close()
	close(l.closed)
	return err
}

func TestValidate(t *testing.T) {
	s := &Server{opts: Options{Name: "t0", Shards: 2}, names: []string{"AES", "jacobi-1d"}}
	for _, tc := range []struct {
		name string
		req  wire.Request
		want wire.Code
	}{
		{"ok", wire.Request{Workload: "AES", Policy: "Conduit"}, wire.CodeOK},
		{"ok, full shard set", wire.Request{Workload: "AES", Policy: "CPU", Shards: []uint32{1, 0}}, wire.CodeOK},
		{"unknown workload", wire.Request{Workload: "aes", Policy: "Conduit"}, wire.CodeBadRequest},
		{"unknown policy", wire.Request{Workload: "AES", Policy: " ISP"}, wire.CodeBadRequest},
		{"partial shard set", wire.Request{Workload: "AES", Policy: "Conduit", Shards: []uint32{0}}, wire.CodeBadRequest},
		{"duplicate shard", wire.Request{Workload: "AES", Policy: "Conduit", Shards: []uint32{1, 1}}, wire.CodeBadRequest},
		{"shard out of range", wire.Request{Workload: "AES", Policy: "Conduit", Shards: []uint32{0, 2}}, wire.CodeBadRequest},
	} {
		code, msg := s.validate(tc.req)
		if code != tc.want || (code == wire.CodeOK) != (msg == "") {
			t.Errorf("%s: validate = %v %q, want %v", tc.name, code, msg, tc.want)
		}
	}
}

// TestResponseOwedBeforeSubmit pins the drain-race fix: by the time a
// request reaches the serving engine its response is already owed, so a
// Drain that runs between Submit returning and the completion being
// queued cannot close the socket under an executed request.
func TestResponseOwedBeforeSubmit(t *testing.T) {
	s, conn := newTarget(t, func(s *Server) {
		submit := s.submit
		s.submit = func(req conduit.Request, notify func(*conduit.Response)) error {
			s.mu.Lock()
			owed := s.inflight
			s.mu.Unlock()
			if owed != 1 {
				t.Errorf("responses owed when Submit ran = %d, want 1: a Drain here would not wait for this request", owed)
			}
			return submit(req, notify)
		}
	})
	request(t, conn, 7)
	if resp := read(t, conn).(wire.Response); resp.ID != 7 || resp.Code != wire.CodeOK {
		t.Fatalf("response = %+v, want OK for request 7", resp)
	}
	s.Drain()
	if s.inflight != 0 {
		t.Errorf("responses owed after Drain = %d, want 0", s.inflight)
	}
}

// TestTargetNoGoroutinePerRequest: a connection is served by one reader
// and one writer however many of its requests are in flight — 64 held
// requests add no goroutine — and all 64 are answered on it once they
// complete.
func TestTargetNoGoroutinePerRequest(t *testing.T) {
	const n = 64
	var h held
	s, conn := newTarget(t, func(s *Server) { h = hold(s, n) })
	before := runtime.NumGoroutine()
	for id := uint64(1); id <= n; id++ {
		request(t, conn, id)
	}
	notifies := h.take(n)
	if grown := runtime.NumGoroutine() - before; grown >= 4 {
		t.Errorf("%d requests in flight grew the goroutine count by %d", n, grown)
	}
	for _, notify := range notifies {
		expire(notify)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		resp := read(t, conn).(wire.Response)
		if resp.Code != wire.CodeDeadline || seen[resp.ID] || resp.ID < 1 || resp.ID > n {
			t.Fatalf("answer %d = %+v", i, resp)
		}
		seen[resp.ID] = true
	}
	s.Drain()
	if s.inflight != 0 {
		t.Errorf("responses owed after Drain = %d, want 0", s.inflight)
	}
}

// TestDrainAfterPeerVanishes: a peer that hangs up while responses are
// owed to it — some answered before it went, unread, the rest after —
// does not wedge the drain. Every owed response is released exactly
// once, written or not: Drain returns and nothing is left owed.
func TestDrainAfterPeerVanishes(t *testing.T) {
	const n = 16
	var h held
	lnClosed := make(chan struct{})
	s, conn := newTarget(t, func(s *Server) {
		h = hold(s, n)
		s.ln = closeSignal{s.ln, lnClosed}
	})
	for id := uint64(1); id <= n; id++ {
		request(t, conn, id)
	}
	notifies := h.take(n)
	for _, notify := range notifies[:n/2] {
		expire(notify)
	}
	conn.Close() // with answers unread: the target's next write meets a reset
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	<-lnClosed
	for _, notify := range notifies[n/2:] {
		expire(notify)
	}
	<-drained
	s.mu.Lock()
	owed := s.inflight
	s.mu.Unlock()
	if owed != 0 {
		t.Errorf("responses owed after Drain = %d, want 0", owed)
	}
}

// TestWriterReleasesOwedResponsesOnce drives one connection's writer by
// hand, on the test goroutine, against a peer that is already gone: a
// completion queued before the writer runs is released once its write
// fails, one that arrives after the writer exited is released on the
// spot, and a frame that owes nothing is dropped without a release.
func TestWriterReleasesOwedResponsesOnce(t *testing.T) {
	s := &Server{inflight: 3}
	s.idle = sync.NewCond(&s.mu)
	peer, raw := net.Pipe()
	peer.Close()
	c := &conn{s: s, raw: raw}
	c.wake.L = &c.mu
	expired := &conduit.Response{Err: conduit.ErrDeadlineExceeded}

	c.send(outbound{id: 1, resp: expired})
	c.finish()
	s.connWG.Add(1)
	c.writeLoop() // writes and fails, releases 1, finds the reader done, exits
	if s.inflight != 2 {
		t.Fatalf("owed after the writer exited = %d, want 2", s.inflight)
	}
	c.send(outbound{id: 2, resp: expired})
	c.send(outbound{frame: wire.SnapshotReq{ID: 3}})
	if s.inflight != 1 {
		t.Errorf("owed after a completion reached an exited writer = %d, want 1", s.inflight)
	}
}

// TestDrainAnswersInFlight: every request in flight when Drain begins is
// answered before the socket closes, a request that arrives once the
// drain has begun is refused with CodeDraining, and Drain is idempotent.
func TestDrainAnswersInFlight(t *testing.T) {
	const n = 5
	var h held
	lnClosed := make(chan struct{})
	s, conn := newTarget(t, func(s *Server) {
		h = hold(s, n)
		s.ln = closeSignal{s.ln, lnClosed}
	})

	for id := uint64(1); id <= n; id++ {
		request(t, conn, id)
	}
	// The connection is served in order, so once the snapshot answers all
	// n requests have been submitted and are held.
	send(t, conn, wire.SnapshotReq{ID: 99})
	if snap := read(t, conn).(wire.Snapshot); snap.ID != 99 {
		t.Fatalf("snapshot = %+v", snap)
	}

	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	<-lnClosed

	request(t, conn, n+1)
	if resp := read(t, conn).(wire.Response); resp.ID != n+1 || resp.Code != wire.CodeDraining {
		t.Fatalf("request during drain answered %+v, want CodeDraining", resp)
	}
	select {
	case <-drained:
		t.Fatalf("Drain returned with %d requests unanswered", n)
	default:
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		h.answer()
		resp := read(t, conn).(wire.Response)
		if resp.Code != wire.CodeDeadline || seen[resp.ID] || resp.ID < 1 || resp.ID > n {
			t.Fatalf("in-flight answer %d = %+v", i, resp)
		}
		seen[resp.ID] = true
	}
	<-drained
	if _, err := conn.r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Errorf("after the drain the socket yielded %v, want EOF", err)
	}
	s.Drain() // a second Drain returns at once
}

// TestNewWrapsRegistrationErrors: callers of the shared registration
// helper can match the cause.
func TestNewWrapsRegistrationErrors(t *testing.T) {
	_, err := New("127.0.0.1:0", Options{Mix: []string{"jacobi-1d"}, Shards: 1 << 20})
	if !errors.Is(err, conduit.ErrTooManyShards) {
		t.Errorf("New with an unshardable plan = %v, want ErrTooManyShards in the chain", err)
	}
	if _, err := New("127.0.0.1:0", Options{Mix: []string{"no-such"}}); err == nil || !strings.Contains(err.Error(), `"no-such"`) {
		t.Errorf("New with an unknown workload = %v", err)
	}
}

// pipeListener is a net.Listener with no socket under it: dial makes a
// net.Pipe and hands its server end to Accept.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// TestRouterClientOverInMemoryListener runs the router's client against a
// target built with NewOn on an in-memory listener: the Hello, one served
// request, and a drain whose ack reports every pool closed, with no TCP
// and no sleep.
func TestRouterClientOverInMemoryListener(t *testing.T) {
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	s, err := NewOn(ln, Options{Name: "t0", Mix: []string{"jacobi-1d"}, Serve: conduit.ServeOptions{Prefork: 1}})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	conn, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := router.NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Name() != "t0" || c.Addr() != "pipe" || !slices.Equal(c.Workloads(), []string{"jacobi-1d"}) {
		t.Fatalf("Hello: target %q at %q serving %v", c.Name(), c.Addr(), c.Workloads())
	}
	resp, err := c.Do(wire.Request{Tenant: "t", Workload: "jacobi-1d", Policy: "Conduit"})
	if err != nil || resp.Code != wire.CodeOK || resp.Result == nil || resp.Result.Decisions == 0 {
		t.Fatalf("Do = %+v, %v; want an OK response with a result", resp, err)
	}
	ack, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.Pools) == 0 {
		t.Fatal("DrainAck reports no pools")
	}
	for _, p := range ack.Pools {
		if !p.Closed || p.Idle != 0 {
			t.Errorf("after drain, pool %s: closed %v, %d idle", p.Name, p.Closed, p.Idle)
		}
	}
	<-served
}

// TestMainRejectsBadFlags: usage errors exit 2 before any listener binds.
func TestMainRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-faults", "0.1", "-fallback", "no-such-policy"},
		{"-faultreplay", t.TempDir() + "/missing.jsonl"},
	} {
		var stderr strings.Builder
		if code := Main(args, io.Discard, &stderr); code != 2 {
			t.Errorf("Main(%v) = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}
