package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// What a Reader keeps between frames. These bound one connection's
// memory, not the protocol: a peer cannot observe them.
const (
	// maxRetained bounds the payload buffer a Reader reuses; a larger
	// frame is read into a buffer of its own.
	maxRetained = 64 << 10
	// maxInternLen bounds the strings a Reader interns: names (counters,
	// tenants, workloads, policies, spans), not error text.
	maxInternLen = 64
	// maxInterned bounds the entries of a Reader's intern table.
	maxInterned = 1024
	// maxResultBytes bounds the result bytes keying a Reader's results.
	maxResultBytes = 128 << 10
)

// Reader reads length-prefixed frames off one connection; it is the one
// place frames are read. It buffers the connection, so a frame's length
// prefix and payload usually arrive in one read; it reads every payload
// of up to maxRetained bytes into one reused buffer; and it decodes
// short strings through a per-connection intern table bounded at
// maxInterned entries, so the names a peer repeats in every frame — a
// Result's counters, a request's tenant, workload and policy — are
// allocated once per connection, not once per frame, and so are repeated
// Results (codec.decodedResult). A decoded frame shares no memory with
// the buffer, so it survives the next ReadFrame. Not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	hdr [4]byte
	buf []byte
	dec codec // decodes every frame; owns the intern table
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r), dec: codec{intern: make(map[string]string), results: make(map[string]*Result)}}
}

// ReadFrame reads and decodes the next frame. It returns io.EOF when the
// stream ends cleanly between frames. The length prefix is checked
// against MaxFrame before any buffer is sized, so a forged prefix cannot
// make the Reader allocate more than MaxFrame.
func (r *Reader) ReadFrame() (Frame, error) { return r.ReadInto(nil) }

// Buffered is the number of bytes already read off the connection and not
// yet decoded: 0 unless the peer sent more than the frames read so far.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// ReadInto is ReadFrame decoding a frame of the type into points to into
// *into, zeroed first, and returning into; other frames come as ReadFrame
// returns them.
func (r *Reader) ReadInto(into Frame) (Frame, error) {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n < 2 {
		return nil, fmt.Errorf("wire: %d-byte frame below minimum", n)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: %d-byte frame exceeds MaxFrame %d", n, MaxFrame)
	}
	var payload []byte
	switch {
	case n > maxRetained:
		payload = make([]byte, n)
	case int(n) > cap(r.buf):
		r.buf = make([]byte, n)
		payload = r.buf
	default:
		payload = r.buf[:n]
	}
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: truncated %d-byte frame: %w", n, err)
	}
	return r.dec.decode(payload, into)
}
