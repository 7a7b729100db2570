package router

import (
	"fmt"
	"net"
	"sync"

	"conduit/internal/wire"
)

// A Client is one target connection: it multiplexes concurrent
// requests over a single framed TCP stream, correlating out-of-order
// responses by ID. A transport or protocol error is sticky — every
// pending and future call fails, and the router fails the target over.
type Client struct {
	addr  string
	conn  net.Conn
	hello wire.Hello

	wmu  sync.Mutex // serializes frame writes; guards wbuf
	wbuf []byte     // scratch every outgoing frame is encoded into

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wire.Frame
	err     error
	closed  bool
}

// Dial connects to a target and consumes its Hello frame.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (the target side speaks
// first with Hello) and starts the response dispatcher.
func NewClient(conn net.Conn) (*Client, error) {
	r := wire.NewReader(conn)
	f, err := r.ReadFrame()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("router: reading hello: %w", err)
	}
	hello, ok := f.(wire.Hello)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("router: target opened with %T, want Hello", f)
	}
	c := &Client{
		addr:    conn.RemoteAddr().String(),
		conn:    conn,
		hello:   hello,
		pending: make(map[uint64]chan wire.Frame),
	}
	go c.readLoop(r)
	return c, nil
}

// Name is the target's self-reported name from Hello.
func (c *Client) Name() string { return c.hello.Target }

// Addr is the remote address of the connection.
func (c *Client) Addr() string { return c.addr }

// Workloads lists the workloads the target's Hello advertised.
func (c *Client) Workloads() []string { return append([]string(nil), c.hello.Workloads...) }

// Shards is the target's advertised shard count per workload.
func (c *Client) Shards() int64 { return c.hello.Shards }

// Err returns the sticky transport error, or nil while healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down; pending calls fail with "closed".
func (c *Client) Close() { c.fail(fmt.Errorf("router: client closed")) }

func (c *Client) readLoop(r *wire.Reader) {
	for {
		f, err := r.ReadFrame()
		if err != nil {
			c.fail(fmt.Errorf("router: target %s: %w", c.hello.Target, err))
			return
		}
		var id uint64
		switch fr := f.(type) {
		case wire.Response:
			id = fr.ID
		case wire.Snapshot:
			id = fr.ID
		case wire.DrainAck:
			id = fr.ID
		default:
			c.fail(fmt.Errorf("router: target %s sent unexpected %T", c.hello.Target, f))
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- f // buffered; never blocks the dispatcher
		}
	}
}

// fail makes err sticky, closes every pending channel (closure — not a
// frame — is the "target gone" signal), and closes the socket.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.err = err
	pending := c.pending
	c.pending = make(map[uint64]chan wire.Frame)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	c.conn.Close()
}

// start registers a fresh ID, stamps it into the frame via stamp, and
// writes the frame. The returned channel yields exactly one reply frame
// — or closes if the connection dies first.
func (c *Client) start(stamp func(id uint64) wire.Frame) (<-chan wire.Frame, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan wire.Frame, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	var err error
	c.wbuf, err = wire.AppendFrame(c.wbuf[:0], stamp(id))
	if err == nil {
		_, err = c.conn.Write(c.wbuf)
	}
	c.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("router: target %s: %w", c.hello.Target, err)
		c.fail(err)
		return nil, err
	}
	return ch, nil
}

// Submit sends a request (its ID field is assigned here) and returns
// the channel its response will arrive on.
func (c *Client) Submit(req wire.Request) (<-chan wire.Frame, error) {
	return c.start(func(id uint64) wire.Frame { req.ID = id; return req })
}

// reply turns what a reply channel yielded into the frame type the
// question asked for: a closed channel becomes the client's sticky error,
// and a reply of any other type is a protocol violation that fails the
// client. asked names the question in that error ("a request",
// "SnapshotReq", ...).
func reply[T wire.Frame](c *Client, asked string, f wire.Frame, ok bool) (T, error) {
	var zero T
	if !ok {
		return zero, c.Err()
	}
	r, ok := f.(T)
	if !ok {
		err := fmt.Errorf("router: target %s answered %s with %T", c.hello.Target, asked, f)
		c.fail(err)
		return zero, err
	}
	return r, nil
}

// call sends the frame stamp builds and awaits its typed reply.
func call[T wire.Frame](c *Client, asked string, stamp func(id uint64) wire.Frame) (T, error) {
	ch, err := c.start(stamp)
	if err != nil {
		var zero T
		return zero, err
	}
	f, ok := <-ch
	return reply[T](c, asked, f, ok)
}

// Do sends a request and waits for its response.
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	return call[wire.Response](c, "a request", func(id uint64) wire.Frame { req.ID = id; return req })
}

// Snapshot fetches the target's current accounting: its metrics scrape.
func (c *Client) Snapshot() (wire.Snapshot, error) {
	return call[wire.Snapshot](c, "SnapshotReq", func(id uint64) wire.Frame { return wire.SnapshotReq{ID: id} })
}

// Drain asks the target to drain and waits for its acknowledgement
// with the final pool counters. The connection is dead afterwards.
func (c *Client) Drain() (wire.DrainAck, error) {
	ack, err := call[wire.DrainAck](c, "Drain", func(id uint64) wire.Frame { return wire.Drain{ID: id} })
	if err == nil {
		c.fail(fmt.Errorf("router: target %s drained", c.hello.Target))
	}
	return ack, err
}
