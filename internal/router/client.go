package router

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"conduit/internal/wire"
)

// HandshakeTimeout bounds Dial's connect and NewClient's wait for the
// Hello, so that a silent peer fails the call instead of hanging it.
const HandshakeTimeout = 10 * time.Second

// A Client is one target connection: it multiplexes concurrent
// requests over a single framed TCP stream, correlating out-of-order
// responses by ID. A transport or protocol error is sticky — every
// pending and future call fails, and the router fails the target over.
type Client struct {
	conn  net.Conn
	hello wire.Hello

	wmu  sync.Mutex // serializes frame writes; guards wbuf
	wbuf []byte     // scratch every outgoing frame is encoded into

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan reply
	free    sync.Pool // of chan reply their callers have received from
	err     error
	closed  bool
}

// reply is one answer: a response held in place, never boxed, or a frame.
type reply struct {
	resp  wire.Response
	frame wire.Frame // nil for a response
}

// Dial connects to a target and consumes its Hello frame.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, HandshakeTimeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (the target side speaks
// first with Hello) and starts the response dispatcher.
func NewClient(conn net.Conn) (*Client, error) {
	// A context's deadline, as DialTimeout's: no time call here (see Clock).
	ctx, cancel := context.WithTimeout(context.Background(), HandshakeTimeout)
	defer cancel()
	deadline, _ := ctx.Deadline()
	conn.SetReadDeadline(deadline)
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
	conn.SetReadDeadline(time.Time{})
	c := &Client{
		conn:    conn,
		hello:   hello,
		pending: make(map[uint64]chan reply),
	}
	go c.readLoop(r)
	return c, nil
}

// Name is the target's self-reported name from Hello.
func (c *Client) Name() string { return c.hello.Target }

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
	var resp wire.Response // every response is read into resp
	for {
		f, err := r.ReadInto(&resp)
		if err != nil {
			c.fail(fmt.Errorf("router: target %s: %w", c.hello.Target, err))
			return
		}
		var rep reply
		var id uint64
		switch fr := f.(type) {
		case *wire.Response:
			id, rep.resp = fr.ID, *fr
		case wire.Snapshot:
			id, rep.frame = fr.ID, fr
		case wire.DrainAck:
			id, rep.frame = fr.ID, fr
		default:
			c.fail(fmt.Errorf("router: target %s sent unexpected %T", c.hello.Target, f))
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- rep // buffered; never blocks the dispatcher
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
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	c.conn.Close()
}

// start stamps a fresh ID into *id, the ID field of the frame f points
// to, and writes the frame. The returned channel, recycled when one is
// free, yields exactly one reply — or closes if the connection dies first.
func (c *Client) start(f wire.Frame, id *uint64) (chan reply, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	*id = c.nextID
	ch, _ := c.free.Get().(chan reply)
	if ch == nil {
		ch = make(chan reply, 1)
	}
	c.pending[*id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	var err error
	c.wbuf, err = wire.AppendFrame(c.wbuf[:0], f)
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

// answer turns what ch yielded (ok false: it closed) into the reply the
// question asked for, of type T, and recycles an open ch: a closed channel
// becomes the client's sticky error, and a reply of any other type is a
// protocol violation that fails the client. asked names the question in
// that error ("a request", "SnapshotReq", ...).
func answer[T wire.Frame](c *Client, asked string, ch chan reply, rep reply, ok bool) (T, error) {
	var zero T
	if !ok {
		return zero, c.Err()
	}
	// ch is drained and out of pending. A hedge loser's is left to the GC.
	c.free.Put(ch)
	if p, isResp := any(&rep.resp).(*T); isResp && rep.frame == nil { // T is wire.Response
		return *p, nil
	}
	if t, ok := rep.frame.(T); ok {
		return t, nil
	}
	err := fmt.Errorf("router: target %s answered %s with %T", c.hello.Target, asked, cmp.Or(rep.frame, wire.Frame(rep.resp)))
	c.fail(err)
	return zero, err
}

// call sends the frame f points to, whose ID field is at id, and awaits
// its reply, of type T.
func call[T wire.Frame](c *Client, asked string, f wire.Frame, id *uint64) (T, error) {
	ch, err := c.start(f, id)
	if err != nil {
		var zero T
		return zero, err
	}
	rep, ok := <-ch
	return answer[T](c, asked, ch, rep, ok)
}

// Do sends a request and waits for its response.
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	return call[wire.Response](c, "a request", &req, &req.ID)
}

// Snapshot fetches the target's current accounting: its metrics scrape.
func (c *Client) Snapshot() (wire.Snapshot, error) {
	var q wire.SnapshotReq
	return call[wire.Snapshot](c, "SnapshotReq", &q, &q.ID)
}

// Drain asks the target to drain and waits for its acknowledgement
// with the final pool counters. The connection is dead afterwards.
func (c *Client) Drain() (wire.DrainAck, error) {
	var d wire.Drain
	ack, err := call[wire.DrainAck](c, "Drain", &d, &d.ID)
	if err == nil {
		c.fail(fmt.Errorf("router: target %s drained", c.hello.Target))
	}
	return ack, err
}
