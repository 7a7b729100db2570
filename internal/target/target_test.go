package target

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	conn, err := net.Dial(s.Addr().Network(), s.Addr().String())
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
	s.submit = func(req conduit.Request, notify, _ func(*conduit.Response)) (bool, error) {
		h.notifies <- func(resp *conduit.Response) {
			resp.Request = req
			notify(resp)
		}
		return false, nil
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
		s.submit = func(req conduit.Request, notify, inline func(*conduit.Response)) (bool, error) {
			s.mu.Lock()
			owed := s.inflight
			s.mu.Unlock()
			if owed != 1 {
				t.Errorf("responses owed when Submit ran = %d, want 1: a Drain here would not wait for this request", owed)
			}
			return submit(req, notify, inline)
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
	c := newConn(s, raw)
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
	c := newConn(s, raw)
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

// goid is the calling goroutine's ID, read off its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// watched is the target's end of a connection that records which
// goroutines read it and which wrote it, how often, and how many writes
// began while another was in progress. It takes each write in two pieces
// with a yield between them, as a socket may: bytes that another write
// slipped in between would break a frame. With began set, each write
// first reports on it that it has begun.
type watched struct {
	net.Conn
	mu       sync.Mutex
	readers  map[string]bool
	writers  map[string]int
	active   atomic.Int32
	overlaps atomic.Int32
	began    chan struct{}
}

func (w *watched) Read(b []byte) (int, error) {
	w.mu.Lock()
	w.readers[goid()] = true
	w.mu.Unlock()
	return w.Conn.Read(b)
}

func (w *watched) Write(b []byte) (int, error) {
	if w.began != nil {
		w.began <- struct{}{}
	}
	w.mu.Lock()
	w.writers[goid()]++
	w.mu.Unlock()
	if w.active.Add(1) > 1 {
		w.overlaps.Add(1)
	}
	defer w.active.Add(-1)
	n, err := w.Conn.Write(b[:len(b)/2])
	if err == nil {
		runtime.Gosched()
		var m int
		m, err = w.Conn.Write(b[len(b)/2:])
		n += m
	}
	return n, err
}

// byReader splits the writes into those the connection's reader made and
// the rest, which only its writer makes.
func (w *watched) byReader() (reader, writer int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for g, n := range w.writers {
		if w.readers[g] {
			reader += n
		} else {
			writer += n
		}
	}
	return reader, writer
}

// watchedListener is a pipeListener whose accepted connections are
// watched.
type watchedListener struct {
	*pipeListener
	accepted chan *watched
}

func (l watchedListener) Accept() (net.Conn, error) {
	c, err := l.pipeListener.Accept()
	if err != nil {
		return nil, err
	}
	w := &watched{Conn: c, readers: make(map[string]bool), writers: make(map[string]int)}
	l.accepted <- w
	return w, nil
}

// newWatchedTarget starts a one-workload target whose engine runs one
// request at a time, as only such an engine serves on a reader, and has
// room to queue every test's requests, on an in-memory listener, after
// prepare has installed the test's seams, and returns it with a peer that
// has read the Hello and the target's watched end of that peer's
// connection.
func newWatchedTarget(t *testing.T, prepare func(*Server)) (*Server, *peer, *watched) {
	t.Helper()
	ln := watchedListener{newPipeListener(), make(chan *watched, 1)}
	s, err := NewOn(ln, Options{Name: "t0", Mix: []string{"jacobi-1d"},
		Serve: conduit.ServeOptions{Concurrency: 1, QueueDepth: 64, Prefork: 1}})
	if err != nil {
		t.Fatal(err)
	}
	prepare(s)
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	t.Cleanup(func() { s.Drain(); <-served })
	conn, err := ln.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &peer{Conn: conn, r: wire.NewReader(conn)}
	if _, ok := read(t, p).(wire.Hello); !ok {
		t.Fatal("the target did not open with Hello")
	}
	return s, p, <-ln.accepted
}

// TestIdleConnectionIsAnsweredByItsReader: on a connection that sends its
// next request only once the last is answered, and an engine nothing else
// uses, every request is served on the connection's reader, which writes
// the response itself: 1 000 requests and the Hello are 1 001 writes, all
// the reader's, and the writer never runs a pass.
func TestIdleConnectionIsAnsweredByItsReader(t *testing.T) {
	const n = 1000
	s, conn, w := newWatchedTarget(t, func(*Server) {})
	for id := uint64(1); id <= n; id++ {
		request(t, conn, id)
		if resp := read(t, conn).(wire.Response); resp.ID != id || resp.Code != wire.CodeOK {
			t.Fatalf("answer to %d = %+v", id, resp)
		}
	}
	if reader, writer := w.byReader(); reader != n+1 || writer != 0 {
		t.Errorf("%d requests: the reader wrote %d times and the writer %d, want %d and 0", n, reader, writer, n+1)
	}
	s.Drain()
	if s.inflight != 0 {
		t.Errorf("responses owed after Drain = %d, want 0", s.inflight)
	}
}

// TestPipelinedRequestsQueue: two requests that reach the target in one
// Write are both answered. The first is not offered to the reader — the
// second is already buffered behind it — and the second, offered once
// nothing more is buffered, finds the engine busy with the first and
// queues rather than being served on the reader.
func TestPipelinedRequestsQueue(t *testing.T) {
	type call struct{ offered, served bool }
	var (
		mu    sync.Mutex
		calls []call
	)
	release := make(chan struct{})
	_, conn, _ := newWatchedTarget(t, func(s *Server) {
		dispatch := s.submit
		s.submit = func(req conduit.Request, notify, inline func(*conduit.Response)) (bool, error) {
			if req.Tag == 1 { // the first holds its slot until the second is dispatched
				next := notify
				notify = func(resp *conduit.Response) { <-release; next(resp) }
			}
			served, err := dispatch(req, notify, inline)
			mu.Lock()
			calls = append(calls, call{inline != nil, served})
			mu.Unlock()
			if req.Tag == 2 {
				close(release)
			}
			return served, err
		}
	})
	var both []byte
	for id := uint64(1); id <= 2; id++ {
		b, err := wire.AppendFrame(both, wire.Request{ID: id, Tenant: "t", Workload: "jacobi-1d", Policy: "Conduit"})
		if err != nil {
			t.Fatal(err)
		}
		both = b
	}
	if _, err := conn.Write(both); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for range 2 {
		resp := read(t, conn).(wire.Response)
		if resp.Code != wire.CodeOK || seen[resp.ID] || resp.ID < 1 || resp.ID > 2 {
			t.Fatalf("answer %+v", resp)
		}
		seen[resp.ID] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []call{{false, false}, {true, false}}; !slices.Equal(calls, want) {
		t.Errorf("dispatches (offered inline, served inline) = %v, want %v", calls, want)
	}
}

// TestInlineAndWriterNeverInterleave: many callers share one connection,
// each sending one to three requests in one Write and waiting for their
// answers. A request with another buffered behind it queues, so its
// response is the writer's; one that finds the connection and the engine
// idle is answered by the reader. Every response decodes and each request
// is answered exactly once: the two writers' bytes never interleave.
func TestInlineAndWriterNeverInterleave(t *testing.T) {
	const callers, each = 8, 40
	s, conn, w := newWatchedTarget(t, func(*Server) {})
	answers := make([]chan wire.Response, callers*each+1)
	for i := range answers {
		answers[i] = make(chan wire.Response, 1)
	}
	// One goroutine reads every response. If it fails it hangs up, which
	// unblocks every write, and closes stopped, so no caller waits on.
	var readErr error
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for range callers * each {
			f, err := conn.r.ReadFrame()
			resp, ok := f.(wire.Response)
			switch {
			case err != nil:
				readErr = fmt.Errorf("reading a response: %w", err)
			case !ok || resp.ID < 1 || int(resp.ID) >= len(answers):
				readErr = fmt.Errorf("read %+v, want a response to a request sent", f)
			case len(answers[resp.ID]) > 0:
				readErr = fmt.Errorf("request %d answered twice", resp.ID)
			default:
				answers[resp.ID] <- resp
				continue
			}
			conn.Close()
			return
		}
	}()
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	policies := []string{"Conduit", "CPU"}
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; {
				first := uint64(c*each + i + 1)
				var b []byte
				for k := 1 + (c+i)%3; k > 0 && i < each; k-- {
					var err error
					if b, err = wire.AppendFrame(b, wire.Request{ID: uint64(c*each + i + 1), Tenant: "t",
						Workload: "jacobi-1d", Policy: policies[i%2]}); err != nil {
						t.Error(err)
						return
					}
					i++
				}
				wmu.Lock()
				_, err := conn.Write(b)
				wmu.Unlock()
				if err != nil {
					select {
					case <-stopped: // the response reader hung up
					default:
						t.Error(err)
					}
					return
				}
				for id := first; id <= uint64(c*each+i); id++ {
					select {
					case resp := <-answers[id]:
						if resp.Code != wire.CodeOK || resp.Result == nil {
							t.Errorf("request %d answered %+v", id, resp)
							return
						}
					case <-stopped:
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-stopped
	if readErr != nil {
		t.Fatal(readErr)
	}
	reader, writer := w.byReader()
	t.Logf("%d responses and the Hello: %d writes by the reader, %d by the writer", callers*each, reader, writer)
	if writer == 0 {
		t.Error("the writer wrote nothing, though a request with another buffered behind it queues")
	}
	if n := w.overlaps.Load(); n != 0 {
		t.Errorf("%d writes began while another was in progress", n)
	}
	s.Drain()
	if s.inflight != 0 {
		t.Errorf("responses owed after Drain = %d, want 0", s.inflight)
	}
}

// smallBuffers is a socket listener whose accepted connections have the
// smallest send buffer the kernel allows, so a peer that stops reading
// fills the target's socket after a few responses.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(1)
	}
	return c, err
}

// TestStalledPeerStallsOnlyItsConnection: a peer that stops reading fills
// its socket, but the target's reader, which serves the peer's requests
// on the one-slot engine and writes their responses, never waits for
// room: the dispatch of the request whose response the socket does not
// take returns, the rest goes to the connection's writer, and a second
// connection is still served. Once the stalled peer reads again it gets
// every response, whole and once.
//
// The sockets are Unix ones: over loopback TCP a peer whose receive
// window is shut soon stops hearing the acknowledgements of what it
// sends, so its requests stall before the target's socket fills.
func TestStalledPeerStallsOnlyItsConnection(t *testing.T) {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "target.sock"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewOn(smallBuffers{ln}, Options{Name: "t0", Mix: []string{"jacobi-1d"},
		Serve: conduit.ServeOptions{Concurrency: 1, Prefork: 1}})
	if err != nil {
		t.Fatal(err)
	}
	dispatched := make(chan bool, 1)
	dispatch := s.submit
	s.submit = func(req conduit.Request, notify, inline func(*conduit.Response)) (bool, error) {
		served, err := dispatch(req, notify, inline)
		if req.Tenant == "stalled" {
			dispatched <- served && err == nil
		}
		return served, err
	}
	served := make(chan struct{})
	go func() { s.Serve(); close(served) }()
	t.Cleanup(func() { s.Drain(); <-served })

	stalled := dial(t, s)
	// One request at a time, each sent once the last was dispatched, so
	// each is offered to the reader and finds the engine idle, until a
	// response is still owed once its dispatch returned: the socket did
	// not take all of it.
	var n uint64
	sent := make(chan error, 1)
	go func() {
		for {
			n++
			b, err := wire.AppendFrame(nil, wire.Request{ID: n, Tenant: "stalled", Workload: "jacobi-1d", Policy: "Conduit"})
			if err == nil {
				_, err = stalled.Write(b)
			}
			if err == nil && !<-dispatched {
				err = fmt.Errorf("request %d was not served on the reader", n)
			}
			s.mu.Lock()
			full := s.inflight > 0
			s.mu.Unlock()
			switch {
			case err == nil && !full && n == 10_000:
				err = errors.New("the socket took 10 000 responses: it never filled, so nothing was tested")
			case err == nil && !full:
				continue
			}
			sent <- err
			return
		}
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the target's reader stopped dispatching: it waits on a peer that does not read")
	}

	other := dial(t, s)
	if err := other.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	request(t, other, 1)
	if resp := read(t, other).(wire.Response); resp.ID != 1 || resp.Code != wire.CodeOK {
		t.Fatalf("the second connection's answer = %+v", resp)
	}

	seen := make(map[uint64]bool)
	for range n {
		resp, ok := read(t, stalled).(wire.Response)
		if !ok || resp.Code != wire.CodeOK || resp.ID < 1 || resp.ID > n || seen[resp.ID] {
			t.Fatalf("the stalled peer read %+v", resp)
		}
		seen[resp.ID] = true
	}
	t.Logf("the socket filled at response %d", n)
}

// Names of table's rows, columns and actions, for failures.
var (
	stateNames  = [nStates]string{"free", "queued", "readerPass", "writerPass", "flushing", "closed"}
	eventNames  = [nEvents]string{"evQueue", "evPost", "evWake", "evDrained", "evLeft", "evFail", "evFinish"}
	actionNames = []string{"undefined", "impossible", "doNone", "doQueue", "doPass", "doSignal", "doWait", "doRelease", "doDrop", "doExit"}
)

// TestConnTransitionTable walks every cell of a connection's transition
// table over an in-memory connection. For each defined cell it brings a
// fresh connection to the cell's state through its real methods, fires
// the cell's event the same way, and checks that the connection is where
// the walk's model of it, which moves by the table alone, says it is —
// the writer's wake-ups and the steps they lead to included. Ending each
// connection then releases every owed response exactly once, the peer
// reads whole frames in order, and no two writes overlap. An event in a
// cell marked impossible stops the connection, and a cell that is neither
// defined nor marked impossible fails the test. Nothing sleeps: the pipe
// holds a pass in its write until the peer reads, the watched connection
// reports each write as it begins, and the writer each wait (parking).
func TestConnTransitionTable(t *testing.T) {
	for st := range nStates {
		for ev := range nEvents {
			cell, name := table[st][ev], stateNames[st]+"/"+eventNames[ev]
			switch cell.do {
			case undefined:
				t.Errorf("%s is neither defined nor marked impossible", name)
			case impossible:
				c := &conn{state: st}
				if !panics(func() { c.on(ev) }) {
					t.Errorf("%s is marked impossible, but the connection went on", name)
				}
			default:
				t.Run(name, func(t *testing.T) {
					k := newWalker(t)
					k.reach(st, ev)
					k.fire(ev)
					k.end()
				})
			}
		}
	}
}

func panics(f func()) (yes bool) {
	defer func() { yes = recover() != nil }()
	f()
	return false
}

// parking is a connection's mutex as its wake condition's locker: Wait
// unlocks through it, so each such unlock says the writer is waiting.
type parking struct {
	*sync.Mutex
	parked chan<- struct{}
}

func (p parking) Unlock() {
	p.Mutex.Unlock()
	p.parked <- struct{}{}
}

// walker is one connection under the table walk, the test's end of its
// pipe, and a model of the connection that moves by the table alone.
type walker struct {
	t      *testing.T
	s      *Server
	c      *conn
	w      *watched
	peer   net.Conn
	r      *wire.Reader
	parked chan struct{} // the writer is waiting
	posted chan struct{} // closed when a post left in its write returns; nil if none is
	exited chan struct{} // closed when the writer exits; nil until it starts

	st       connState // where the table says the connection is
	waiting  bool      // the writer is waiting to be woken
	finished bool      // the reader finished
	hungUp   bool      // the peer hung up
	id, seen uint64    // the last completion owed, and the last the peer read
}

func newWalker(t *testing.T) *walker {
	s := &Server{}
	s.idle = sync.NewCond(&s.mu)
	raw, peer := net.Pipe()
	w := &watched{Conn: raw, readers: make(map[string]bool), writers: make(map[string]int), began: make(chan struct{})}
	k := &walker{t: t, s: s, c: newConn(s, w), w: w, peer: peer, r: wire.NewReader(peer), parked: make(chan struct{})}
	k.c.wake.L = parking{&k.c.mu, k.parked}
	return k
}

// reach brings the connection to st. Wherever the writer can wait it is
// started first, so the wake-ups the table names show, unless the event
// to fire is its start; the end of a pass in flushing needs the writer's
// pass under way.
func (k *walker) reach(st connState, ev event) {
	if ev != evWake && (st == free || st == readerPass || st == closed) {
		k.start()
	}
	switch st {
	case queued:
		k.put(evQueue)
	case readerPass:
		k.put(evPost)
	case writerPass:
		k.put(evQueue)
		k.start()
	case flushing:
		k.put(evQueue)
		k.finish()
		if ev == evDrained || ev == evLeft || ev == evFail {
			k.start()
		}
	case closed:
		k.put(evPost)
		k.endPass(evFail)
	}
	if k.st != st {
		k.t.Fatalf("the walk reached %s, not %s", stateNames[k.st], stateNames[st])
	}
}

// fire fires ev through the connection's real methods.
func (k *walker) fire(ev event) {
	switch ev {
	case evQueue, evPost:
		k.put(ev)
	case evWake:
		k.start()
	case evFinish:
		k.finish()
	default:
		k.endPass(ev)
	}
}

// put hands the connection one more completion it owes, as an engine
// worker does (evQueue) or the reader (evPost). A reader that makes a pass
// is left in its write, in the background.
func (k *walker) put(ev event) {
	k.id++
	k.s.begin()
	o := outbound{resp: conduit.Response{Request: conduit.Request{Tag: k.id}, Err: conduit.ErrDeadlineExceeded}}
	owed := k.owed()
	switch {
	case ev == evQueue:
		k.c.send(o)
	case table[k.st][ev].do == doPass:
		k.posted = make(chan struct{})
		go func() {
			defer close(k.posted)
			k.c.post(o)
		}()
		<-k.w.began
	default:
		k.c.post(o)
	}
	if k.apply(ev) == doRelease && k.owed() != owed-1 {
		k.t.Errorf("completion %d reached a closed connection and was not released on the spot", k.id)
	}
}

func (k *walker) finish() {
	k.c.finish()
	k.finished = true
	k.apply(evFinish)
}

// start starts the writer and waits for its first step.
func (k *walker) start() {
	k.s.connWG.Add(1)
	k.exited = make(chan struct{})
	go func() {
		defer close(k.exited)
		k.c.writeLoop()
	}()
	k.step()
	k.check()
}

// endPass ends the pass under way: the peer reads what it writes
// (evDrained), or does once a completion is queued behind it (evLeft), or
// hangs up with one queued (evFail).
func (k *walker) endPass(ev event) {
	if ev != evDrained {
		k.put(evQueue)
	}
	if ev == evFail {
		k.peer.Close()
		k.hungUp = true
	} else {
		k.read()
	}
	if k.posted != nil { // the reader's pass
		<-k.posted
		k.posted = nil
		k.apply(ev)
		return
	}
	k.st = table[k.st][ev].next // the writer's, which goes on to its next step at once
	k.step()
	k.check()
}

// apply moves the model on ev and returns the cell's action: a waiting
// writer the action wakes takes its next step. The connection must then be
// where the model is.
func (k *walker) apply(ev event) action {
	k.t.Helper()
	cell := table[k.st][ev]
	k.st = cell.next
	if k.waiting && (cell.do == doQueue || cell.do == doSignal) {
		k.step()
	}
	k.check()
	return cell.do
}

// step waits for the writer's next step, the one the table gives its wake
// in the model's state: a pass begins a write, a wait parks, an exit ends
// it.
func (k *walker) step() {
	k.t.Helper()
	want := table[k.st][evWake]
	k.st = want.next
	var got action
	select {
	case <-k.w.began:
		got = doPass
	case <-k.parked:
		got = doWait
	case <-k.exited:
		got = doExit
	case <-time.After(10 * time.Second): // only a broken connection gets here
		k.t.Fatalf("the writer took no step in %s, want %s", stateNames[k.st], actionNames[want.do])
	}
	k.waiting = got == doWait
	if got != want.do {
		k.t.Errorf("the writer's step was %s, want %s", actionNames[got], actionNames[want.do])
	}
}

// check fails unless the connection is where the model is, and the model
// where nothing stalls: no frame is left to a writer that waits, and once
// the reader finished the writer flushes or is to exit.
func (k *walker) check() {
	k.t.Helper()
	k.c.mu.Lock()
	got := k.c.state
	k.c.mu.Unlock()
	if got != k.st {
		k.t.Errorf("the connection is %s, the table says %s", stateNames[got], stateNames[k.st])
	}
	if k.waiting && (k.st == queued || k.st == flushing) || k.finished && k.st != flushing && k.st != closed {
		k.t.Fatalf("in %s, the writer waiting %v and the reader finished %v, the connection stalls", stateNames[k.st], k.waiting, k.finished)
	}
}

func (k *walker) owed() int {
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	return k.s.inflight
}

// read reads one frame at the peer: the answer to a later completion than
// the last it read.
func (k *walker) read() bool {
	f, err := k.r.ReadFrame()
	resp, ok := f.(wire.Response)
	if err != nil || !ok || resp.Code != wire.CodeDeadline || resp.ID <= k.seen {
		if !errors.Is(err, io.EOF) {
			k.t.Errorf("the peer read %+v (%v), want an answer to a completion after %d", f, err, k.seen)
		}
		return false
	}
	k.seen = resp.ID
	return true
}

// end ends the connection as its reader and writer do, while the peer
// reads to the end of the stream, and checks what the walk left behind.
func (k *walker) end() {
	read := make(chan struct{})
	go func() {
		defer close(read)
		for !k.hungUp && k.read() {
		}
	}()
	if k.posted != nil {
		<-k.posted
	}
	if !k.finished {
		k.c.finish()
	}
	if k.exited == nil {
		k.s.connWG.Add(1)
		k.exited = make(chan struct{})
		go func() {
			defer close(k.exited)
			k.c.writeLoop()
		}()
	}
	for exited := false; !exited; {
		select {
		case <-k.w.began:
		case <-k.parked:
		case <-k.exited:
			exited = true
		case <-time.After(10 * time.Second): // only a broken connection gets here
			k.t.Fatal("the writer did not exit once the reader finished")
		}
	}
	<-read
	if owed := k.owed(); owed != 0 {
		k.t.Errorf("%d responses owed once the connection ended, want 0", owed)
	}
	if n := k.w.overlaps.Load(); n != 0 {
		k.t.Errorf("%d writes began while another was in progress", n)
	}
}
