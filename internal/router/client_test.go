package router

import (
	"errors"
	"net"
	"os"
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
