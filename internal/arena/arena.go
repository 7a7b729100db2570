// Package arena provides a fixed-size page-buffer free list for the
// simulator's data plane. Every computation substrate produces its results
// into freshly allocated page-sized buffers (the replace-on-write
// discipline that keeps Device.Clone cheap); the arena lets a run reuse
// the buffers it has proven dead — a replaced functional result, a
// streamed operand copy after its operation retires — instead of leaving
// one garbage page behind every operation.
//
// A Pool is intentionally not safe for concurrent use: it belongs to
// exactly one module instance (or one run), matching the simulator's
// one-goroutine-per-device discipline. Cloning a module must create a
// fresh Pool for the clone; free buffers are dead by definition and are
// never shared.
package arena

// maxFree bounds how many dead buffers a pool retains. Beyond this the
// pool lets the garbage collector take over; the cap keeps worst-case
// retention (e.g. a burst of DRAM-slot invalidations) to a few MiB of
// page-sized buffers rather than a whole device image.
const maxFree = 256

// Pool is a LIFO free list of same-sized byte buffers.
type Pool struct {
	size int
	free [][]byte
}

// New returns an empty pool of size-byte buffers.
func New(size int) *Pool {
	if size <= 0 {
		panic("arena: pool buffer size must be positive")
	}
	return &Pool{size: size}
}

// Size reports the pool's buffer size in bytes.
func (p *Pool) Size() int { return p.size }

// Get returns a buffer of the pool's size. Its contents are arbitrary
// (stale data from a previous life): the caller must fully overwrite it
// or use GetZeroed.
func (p *Pool) Get() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	return make([]byte, p.size)
}

// GetZeroed returns a buffer of the pool's size with every byte zero.
func (p *Pool) GetZeroed() []byte {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		clear(b)
		return b
	}
	return make([]byte, p.size)
}

// GetCopy returns a buffer holding a copy of src. src must be exactly the
// pool's size.
func (p *Pool) GetCopy(src []byte) []byte {
	b := p.Get()
	copy(b, src)
	return b
}

// Put returns a dead buffer to the pool. The caller asserts nothing else
// references b — in this codebase that means b was freshly allocated by
// the current run and has either never been stored, or was stored and has
// since been replaced with no Clone taken in between. Buffers of the
// wrong size (and nil) are ignored, so callers can Put buffers of unknown
// provenance unconditionally.
func (p *Pool) Put(b []byte) {
	if p == nil || len(b) != p.size || len(p.free) >= maxFree {
		return
	}
	p.free = append(p.free, b)
}
