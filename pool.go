package conduit

import (
	"errors"
	"sync"
	"sync/atomic"

	"conduit/internal/ssd"
)

// ErrPoolClosed is returned by DevicePool.Get — and therefore by
// Deployment.Fork and Run — once the pool has been closed: a drained
// deployment refuses new device runs instead of silently cloning a
// master whose serving lifecycle has ended.
var ErrPoolClosed = errors.New("conduit: device pool closed")

// DevicePool keeps a bounded buffer of ready forks of a Deployment's
// pristine post-deploy master. A fork is a parked device restored in place
// (Deployment.newFork: a memcpy, nothing allocated) or, when none is
// parked, a clone of the frozen master, which costs the node directories
// of its copy-on-write tables plus the small per-plane and per-slot state
// (tens of KiB at the default geometry; TestForkAllocBudget pins it), not
// the drive's per-page bookkeeping. A background refiller produces forks
// ahead of demand for callers that keep their device (Get, Fork, Run), for
// the initial fill and for quarantine repair. Served traffic passes it by:
// Deployment.settle restores each served device after its response, and
// Fork takes that device first. On serve_light (2 vCPUs) that cut CPU per
// request by 23 %; the buffer had missed 16–42 % of forks with one
// client, and served under 4 % of them at 2 to 8 clients.
//
// Every fork of the master is byte-identical, restored or cloned, so a
// pool-served fork is observationally indistinguishable from one made on
// demand; the pool changes who pays the copy, never what executes. Get
// never blocks: an empty buffer (demand outran the refiller) falls back to
// forking inline. A fork handed out through Get, Fork or Run is the
// caller's and never comes back; the serving path and the cluster merge,
// which drop the device after its run, park it for reuse instead
// (Deployment.recycle).
//
// The pool also tracks fork health: Quarantine reports a poisoned fork
// back, which flushes the buffered forks and the parked devices as suspect
// and lets the background refiller repair the buffer by cloning from the
// pristine master (counted in PoolStats.Quarantined/Repairs).
//
// A DevicePool is safe for concurrent use. Close it to stop the refiller
// and release buffered devices; Get on a closed pool returns
// ErrPoolClosed. A pool always belongs to exactly one Deployment — a
// sharded Cluster attaches one pool per shard (ClusterOptions.Prefork), never
// one shared pool, since clones of different shard masters are not
// interchangeable.
type DevicePool struct {
	dep     *Deployment
	free    chan *ssd.Device
	room    chan struct{} // one token per unfilled buffer slot
	stop    chan struct{}
	done    chan struct{} // refiller exited
	drained chan struct{} // Close finished emptying the buffer

	closeOnce sync.Once

	preforked   int64 // forks produced by the refiller
	hits        int64 // Gets served from the buffer
	misses      int64 // Gets that forked inline
	restored    int64 // of preforked + misses, those that restored a used device
	quarantined int64 // poisoned forks reported back (Quarantine calls)
	repairs     int64 // buffer flush+re-clone repair cycles completed
}

// PoolStats is a point-in-time snapshot of a pool's activity.
type PoolStats struct {
	// Preforked counts clones the background refiller produced.
	Preforked int64
	// Hits counts forks served from the pre-fork buffer.
	Hits int64
	// Misses counts forks cloned inline because the buffer was empty
	// (or the pool was closed).
	Misses int64
	// Quarantined counts forks reported poisoned via Quarantine.
	Quarantined int64
	// Repairs counts completed quarantine repair cycles: buffered
	// clones flushed as suspect and their slots handed back to the
	// refiller to re-clone from the pristine master.
	Repairs int64
	// Restored counts the forks, of Preforked + Misses, made by restoring
	// a parked device instead of cloning the master. Like Hits and Misses
	// the split is scheduling-dependent (which device came back before
	// which fork was made) and never enters a deterministic export.
	Restored int64
	// Idle is the number of devices held that no request is using: ready
	// forks in the buffer plus parked devices. Zero after Close.
	Idle int
	// Closed reports whether Close has begun.
	Closed bool
}

// Prefork attaches a pool of depth pre-forked clones to the deployment and
// returns it. Fork (and therefore Run) is served from the pool from now
// on. A previously attached pool is closed and replaced. depth < 1 is
// treated as 1.
func (d *Deployment) Prefork(depth int) *DevicePool {
	if depth < 1 {
		depth = 1
	}
	p := &DevicePool{
		dep:     d,
		free:    make(chan *ssd.Device, depth),
		room:    make(chan struct{}, depth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	for i := 0; i < depth; i++ {
		p.room <- struct{}{}
	}
	go p.refill()
	d.poolMu.Lock()
	old := d.pool
	d.pool = p
	d.poolMu.Unlock()
	if old != nil {
		old.Close()
	}
	return p
}

// Pool returns the deployment's attached prefork pool, or nil.
func (d *Deployment) Pool() *DevicePool {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	return d.pool
}

// Close closes the deployment's prefork pool, if any, and ends recycling:
// the parked devices are dropped, and so is every device that still comes
// back (also under a pool a later Prefork attaches). Forks already handed
// out are unaffected; later Forks (and device-policy Runs) on a pooled
// deployment fail with ErrPoolClosed. The closed pool stays attached so
// its final Stats remain inspectable.
func (d *Deployment) Close() {
	if p := d.Pool(); p != nil {
		p.Close()
	} else {
		d.flushUsed(true)
	}
}

// poolStats implements the serving layer's application interface: a
// deployment contributes its pool snapshot under its registered name.
func (d *Deployment) poolStats(name string, out map[string]PoolStats) {
	if p := d.Pool(); p != nil {
		out[name] = p.Stats()
	}
}

// refill keeps the buffer full until stopped. A room token is acquired
// before forking, so the pool holds at most depth ready forks at any
// moment (buffered plus the one in the refiller's hand). The fork produced
// when the stop signal wins the select is simply dropped — devices carry
// no external resources.
func (p *DevicePool) refill() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case <-p.room:
		}
		dev, restored := p.dep.newFork()
		select {
		case <-p.stop:
			return
		case p.free <- dev:
			atomic.AddInt64(&p.preforked, 1)
			atomic.AddInt64(&p.restored, restored)
		}
	}
}

// Get returns a fresh post-deploy fork, preferring a pre-forked one. It
// never blocks: on an empty buffer (demand outran the refiller) it forks
// inline, exactly like Deployment.Fork without a pool. On a closed pool
// it returns ErrPoolClosed — never a silent inline fork of a deployment
// whose serving lifecycle has ended. The caller owns the device.
func (p *DevicePool) Get() (*ssd.Device, error) {
	select {
	case dev, ok := <-p.free:
		if !ok {
			return nil, ErrPoolClosed
		}
		// Hand the freed slot back to the refiller.
		select {
		case p.room <- struct{}{}:
		default:
		}
		atomic.AddInt64(&p.hits, 1)
		return dev, nil
	default:
	}
	select {
	case <-p.stop:
		return nil, ErrPoolClosed
	default:
	}
	atomic.AddInt64(&p.misses, 1)
	dev, restored := p.dep.newFork()
	atomic.AddInt64(&p.restored, restored)
	return dev, nil
}

// Quarantine reports that a fork served from this pool turned out to be
// poisoned. The handed-out fork is the caller's to discard, never to
// recycle; the pool treats the buffered forks and the parked devices as
// suspect, flushes both, and hands the buffer slots back to the background
// refiller, which repairs the buffer by cloning from the pristine master.
// On a closed pool only the quarantine count is recorded.
func (p *DevicePool) Quarantine() {
	atomic.AddInt64(&p.quarantined, 1)
	p.dep.flushUsed(false)
	for {
		select {
		case _, ok := <-p.free:
			if !ok {
				return // closed and drained: nothing to repair
			}
			select {
			case p.room <- struct{}{}:
			default:
			}
		default:
			select {
			case <-p.stop:
			default:
				atomic.AddInt64(&p.repairs, 1)
			}
			return
		}
	}
}

// Close stops the refiller and discards every buffered fork and parked
// device; it blocks until the refiller has exited and both are gone, so
// after Close returns no fork is held, and unless the pool had been
// replaced the deployment parks none again. Close is idempotent.
func (p *DevicePool) Close() {
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.done
		close(p.free)
		for range p.free {
		}
		p.dep.flushUsed(p.dep.Pool() == p)
		close(p.drained)
	})
	// Losers of the Once race wait for the winner to finish draining, so
	// every Close call observes the empty-pool postcondition.
	<-p.drained
}

// Stats returns a snapshot of the pool's counters.
func (p *DevicePool) Stats() PoolStats {
	closed := false
	select {
	case <-p.stop:
		closed = true
	default:
	}
	idle := len(p.free)
	p.dep.poolMu.Lock()
	if p.dep.pool == p {
		idle += len(p.dep.used) + len(p.dep.ready)
	}
	p.dep.poolMu.Unlock()
	return PoolStats{
		Preforked:   atomic.LoadInt64(&p.preforked),
		Hits:        atomic.LoadInt64(&p.hits),
		Misses:      atomic.LoadInt64(&p.misses),
		Quarantined: atomic.LoadInt64(&p.quarantined),
		Repairs:     atomic.LoadInt64(&p.repairs),
		Restored:    atomic.LoadInt64(&p.restored),
		Idle:        idle,
		Closed:      closed,
	}
}
