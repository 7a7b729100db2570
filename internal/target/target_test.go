package target

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	conduit "conduit"
	"conduit/internal/metrics"
	"conduit/internal/router"
	"conduit/internal/serve"
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
	b, err := wire.AppendFrame(nil, f)
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
// flight for exactly as long as the test wants. A completion echoes its
// request into the response it is handed, as the engine does.
type held struct{ notifies chan func(*conduit.Response) }

func hold(s *Server, n int) held {
	h := held{notifies: make(chan func(*conduit.Response), n)}
	s.submit = func(req conduit.Request, notify func(*conduit.Response)) error {
		h.notifies <- func(resp *conduit.Response) {
			resp.Request = req
			notify(resp)
		}
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
	expired := func(id uint64) outbound {
		return outbound{resp: conduit.Response{Request: conduit.Request{Tag: id}, Err: conduit.ErrDeadlineExceeded}}
	}

	c.send(expired(1))
	c.finish()
	s.connWG.Add(1)
	c.writeLoop() // writes and fails, releases 1, finds the reader done, exits
	if s.inflight != 2 {
		t.Fatalf("owed after the writer exited = %d, want 2", s.inflight)
	}
	c.send(expired(2))
	c.send(outbound{frame: wire.SnapshotReq{ID: 3}})
	if s.inflight != 1 {
		t.Errorf("owed after a completion reached an exited writer = %d, want 1", s.inflight)
	}
}

// TestWriterHangsUpOnAnUnsendableFrame: a frame the protocol refuses to
// encode is not dropped in silence, which would leave its peer waiting
// for an answer forever: the writer hangs up instead.
func TestWriterHangsUpOnAnUnsendableFrame(t *testing.T) {
	s := &Server{}
	s.idle = sync.NewCond(&s.mu)
	peer, raw := net.Pipe()
	defer peer.Close()
	c := &conn{s: s, raw: raw}
	c.wake.L = &c.mu
	c.send(outbound{frame: wire.Response{ID: 1, Code: wire.CodeOK}}) // OK without a Result
	c.finish()
	s.connWG.Add(1)
	go c.writeLoop()
	if f, err := wire.NewReader(peer).ReadFrame(); !errors.Is(err, io.EOF) {
		t.Errorf("the peer of an unsendable frame read %+v (%v), want EOF", f, err)
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

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
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
	ln := newPipeListener()
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
	if c.Name() != "t0" || !slices.Equal(c.Workloads(), []string{"jacobi-1d"}) {
		t.Fatalf("Hello: target %q serving %v", c.Name(), c.Workloads())
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

// TestRequestAfterDrainAck: a peer that writes a request after reading
// its DrainAck is never answered — the target hangs up once the ack is
// written, so the peer reads the end of the stream — and Serve returns.
func TestRequestAfterDrainAck(t *testing.T) {
	ln := newPipeListener()
	s, err := NewOn(ln, Options{Name: "t0", Mix: []string{"jacobi-1d"}})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	conn, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p := &peer{Conn: conn, r: wire.NewReader(conn)}
	if _, ok := read(t, p).(wire.Hello); !ok {
		t.Fatal("the target did not open with Hello")
	}
	send(t, p, wire.Drain{ID: 1})
	if ack, ok := read(t, p).(wire.DrainAck); !ok || ack.ID != 1 {
		t.Fatalf("answer to Drain = %+v, want DrainAck 1", ack)
	}
	b, err := wire.AppendFrame(nil, wire.Request{ID: 2, Tenant: "t", Workload: "jacobi-1d", Policy: "Conduit"})
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(b) // fails on the closed pipe, or reaches a reader that is gone
	if f, err := p.r.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("after its DrainAck the target yielded %+v (%v), want EOF", f, err)
	}
	<-served
}

// requestsByTenant reads each tenant's conduit_serve_requests_total out
// of a scrape.
func requestsByTenant(samples []metrics.Sample) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range samples {
		for _, l := range m.Labels {
			if m.Name == "conduit_serve_requests_total" && l.Key == "tenant" {
				out[l.Value] = m.Value
			}
		}
	}
	return out
}

// TestSnapshotPastMaxTenants: a scrape after 300 tenants — whose 16
// series each would overflow wire.MaxList — still reaches the router's
// client: the first serve.MaxTenants tenants keep their accounts and the
// rest share serve.OverflowTenant's.
func TestSnapshotPastMaxTenants(t *testing.T) {
	const tenants = 300
	ln := newPipeListener()
	s, err := NewOn(ln, Options{Name: "t0", Mix: []string{"jacobi-1d"}})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	defer func() { s.Drain(); <-served }()
	conn, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := router.NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < tenants; i++ {
		resp, err := c.Do(wire.Request{Tenant: fmt.Sprintf("tenant-%03d", i), Workload: "jacobi-1d", Policy: "CPU"})
		if err != nil || resp.Code != wire.CodeOK {
			t.Fatalf("request %d: %+v, %v", i, resp, err)
		}
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := requestsByTenant(snap.Samples)
	if len(got) != serve.MaxTenants+1 || got["tenant-000"] != 1 || got[serve.OverflowTenant] != tenants-serve.MaxTenants {
		t.Errorf("scrape bills %d tenants, tenant-000 %v requests and the overflow %v, want %d, 1 and %d",
			len(got), got["tenant-000"], got[serve.OverflowTenant], serve.MaxTenants+1, tenants-serve.MaxTenants)
	}
}

// TestWorstCaseScrapeFitsOneFrame: with every evaluation workload
// registered, pooled and behind an armed breaker, and more tenants than
// the engine names, a target's scrape fits wire.MaxList and encodes as
// one Snapshot frame.
func TestWorstCaseScrapeFitsOneFrame(t *testing.T) {
	s, err := NewOn(newPipeListener(), Options{Name: "t0", Serve: conduit.ServeOptions{
		Prefork: 1, Recovery: conduit.RecoveryOptions{BreakerThreshold: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	for i, name := range s.Workloads() { // a served request arms each workload's breaker
		if _, err := s.srv.Do(conduit.Request{Tenant: fmt.Sprint("served-", i), Workload: name, Policy: "CPU"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= serve.MaxTenants; i++ { // a refused request opens its tenant's account too
		s.srv.Do(conduit.Request{Tenant: fmt.Sprint("refused-", i), Workload: "no-such", Policy: "CPU"})
	}
	samples := s.srv.Metrics()
	if got := requestsByTenant(samples); len(got) != serve.MaxTenants+1 {
		t.Fatalf("scrape bills %d tenants, want %d", len(got), serve.MaxTenants+1)
	}
	t.Logf("worst-case scrape: %d series", len(samples))
	if len(samples) > wire.MaxList {
		t.Errorf("worst-case scrape holds %d series, over wire.MaxList %d", len(samples), wire.MaxList)
	}
	if _, err := wire.AppendFrame(nil, wire.Snapshot{ID: 1, Target: "t0", Samples: samples}); err != nil {
		t.Errorf("worst-case scrape does not encode: %v", err)
	}
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
