package router

import (
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"conduit/internal/wire"
)

// deadlineConn records the read deadlines set on it, whether a read came
// before the first of them, and whether it was closed. With fail set,
// every read fails with it, the way a read past its deadline does.
type deadlineConn struct {
	net.Conn
	fail error

	mu          sync.Mutex
	deadlines   []time.Time
	unboundRead bool // a read happened before any deadline was set
	closed      bool
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlines = append(c.deadlines, t)
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	c.unboundRead = c.unboundRead || len(c.deadlines) == 0
	c.mu.Unlock()
	if c.fail != nil {
		return 0, c.fail
	}
	return c.Conn.Read(b)
}

func (c *deadlineConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// TestHandshakeIsBounded: NewClient sets a read deadline before it reads
// the Hello and clears it once the Hello is in, so the connection's later
// reads are unbounded again; a peer whose read fails with
// os.ErrDeadlineExceeded fails NewClient, which closes the connection.
func TestHandshakeIsBounded(t *testing.T) {
	mine, peer := net.Pipe()
	defer peer.Close()
	go func() {
		hello, _ := wire.AppendFrame(nil, wire.Hello{Target: "t0"})
		peer.Write(hello)
	}()
	conn := &deadlineConn{Conn: mine}
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn.mu.Lock()
	deadlines, unbound := conn.deadlines, conn.unboundRead
	conn.mu.Unlock()
	if unbound || len(deadlines) != 2 || deadlines[0].IsZero() || !deadlines[1].IsZero() {
		t.Errorf("read before a deadline: %v; deadlines %v; want one set before the first read, then one cleared", unbound, deadlines)
	}
	if c.Name() != "t0" {
		t.Errorf("Name = %q, want the Hello's t0", c.Name())
	}

	silent, other := net.Pipe()
	defer other.Close()
	conn = &deadlineConn{Conn: silent, fail: os.ErrDeadlineExceeded}
	if _, err := NewClient(conn); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("silent peer: err = %v, want os.ErrDeadlineExceeded", err)
	}
	if !conn.closed {
		t.Error("NewClient left a silent peer's connection open")
	}
}

// TestRoutedResultsSharedNeverWritten: two goroutines route one cell
// through one Client, whose Reader hands every response the *Result it
// decoded first (its result table). Each response equals a fresh
// wire.Decode of its own frame, and the shared Result never changes; run
// under -race, a write to it would show as a race too.
func TestRoutedResultsSharedNeverWritten(t *testing.T) {
	sent := &wire.Result{Policy: "Conduit", ComputeEnergyJ: 0.25, OverheadNS: 7, Decisions: 3, InstCount: 3, InstMeanNS: 40}
	for i := range 21 {
		sent.Counters = append(sent.Counters, wire.Counter{Name: fmt.Sprintf("layer%02d.events", i), Value: int64(i * i)})
	}
	mine, theirs := net.Pipe()
	go func() { // a target that answers every request with sent
		buf, _ := wire.AppendFrame(nil, wire.Hello{Target: "t0"})
		r := wire.NewReader(theirs)
		for {
			if _, err := theirs.Write(buf); err != nil {
				return
			}
			f, err := r.ReadFrame()
			q, ok := f.(wire.Request)
			if err != nil || !ok {
				return
			}
			buf, _ = wire.AppendFrame(buf[:0], wire.Response{ID: q.ID, Code: wire.CodeOK, ElapsedSimNS: int64(q.ID), Result: sent})
		}
	}()
	c, err := NewClient(mine)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); theirs.Close() })
	rt, err := New([]*Client{c}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const perCaller = 200
	got := make(chan *wire.Result, 2*perCaller)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perCaller {
				resp, _, err := rt.Do(wire.Request{Tenant: "t", Workload: "w", Policy: "Conduit"})
				if err != nil {
					t.Error(err)
					return
				}
				if fresh, err := wire.Decode(wire.Append(nil, resp)); err != nil || !reflect.DeepEqual(fresh, resp) {
					t.Errorf("response %+v, a fresh Decode of its frame %+v (%v)", resp, fresh, err)
					return
				}
				got <- resp.Result
			}
		}()
	}
	wg.Wait()
	close(got)
	first := <-got
	for r := range got {
		if r != first {
			t.Fatal("two responses with the same result bytes got different Results")
		}
	}
	if !reflect.DeepEqual(first, sent) {
		t.Errorf("the shared Result changed: %+v, sent %+v", first, sent)
	}
}
