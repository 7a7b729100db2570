package conduit

import (
	"errors"

	"conduit/internal/ssd"
)

// ErrPoolClosed is returned by Deployment.Fork and Run (and DevicePool.Get,
// which is Fork) once the deployment's pool has been closed: a drained
// deployment refuses new device runs instead of silently cloning a master
// whose serving lifecycle has ended.
var ErrPoolClosed = errors.New("conduit: device pool closed")

// DevicePool is the bookkeeping of a Deployment's ready list, the restored
// forks waiting for the next fork of its pristine post-deploy master. A
// fork is a parked device restored in place (a memcpy, nothing allocated)
// or, when none is parked, a clone of the frozen master, which costs the
// node directories of its copy-on-write tables plus the small per-plane
// and per-slot state (tens of KiB at the default geometry;
// TestForkAllocBudget pins it), not the drive's per-page bookkeeping.
//
// The ready list is filled whether or not a pool is attached: the served
// path parks each device after its run, the goroutine that served it
// restores it onto the list once the response is out (Deployment.settle),
// and the next request takes it, so steady serving clones nothing. A pool
// adds three things: Prefork clones depth devices onto the list ahead of
// the first request; Fork, Run and Get, whose caller keeps the device,
// restock the list to depth before they return; and the pool keeps the
// counters PoolStats reports. Nothing runs in the background.
//
// Every fork of the master is byte-identical, restored or cloned, so a
// ready fork is observationally indistinguishable from one made on
// demand; the pool changes who pays the copy, never what executes.
//
// Quarantine reports a poisoned fork back: the ready and parked devices
// are dropped as suspect and the list is re-cloned to depth from the
// pristine master (counted in PoolStats.Quarantined/Repairs).
//
// A DevicePool is safe for concurrent use. Deployment.Close ends it and
// drops every ready and parked device; Fork then returns ErrPoolClosed. A
// pool always belongs to exactly one Deployment — a sharded Cluster
// attaches one pool per shard (ClusterOptions.Prefork), never one shared
// pool, since clones of different shard masters are not interchangeable.
type DevicePool struct {
	dep   *Deployment
	depth int
	stats PoolStats // guarded by dep.poolMu; Idle is filled in by Stats
}

// PoolStats is a point-in-time snapshot of a pool's activity.
type PoolStats struct {
	// Preforked counts devices made ready ahead of a fork: Prefork's,
	// a restock's and a repair's, and the served devices settle restored.
	Preforked int64
	// Hits counts forks taken from the ready list.
	Hits int64
	// Misses counts forks made inline because the ready list was empty.
	Misses int64
	// Quarantined counts forks reported poisoned via Quarantine.
	Quarantined int64
	// Repairs counts quarantine repair cycles: the ready list flushed as
	// suspect and re-cloned to depth from the pristine master.
	Repairs int64
	// Restored counts the devices, of Preforked + Misses, made by
	// restoring a parked device instead of cloning the master. Like Hits
	// and Misses the split is scheduling-dependent (which device came back
	// before which fork was made) and never enters a deterministic export.
	Restored int64
	// Idle is the number of devices held that no request is using: ready
	// forks plus parked devices. Zero after Close.
	Idle int
	// Closed reports whether Close has begun.
	Closed bool
}

// Prefork attaches a pool of depth ready forks to the deployment and
// returns it, cloning them on the caller's goroutine. A previously
// attached pool is closed and replaced, and the devices it held are
// dropped. depth < 1 is treated as 1.
func (d *Deployment) Prefork(depth int) *DevicePool {
	p := &DevicePool{dep: d, depth: max(depth, 1)}
	d.poolMu.Lock()
	if old := d.pool; old != nil {
		old.stats.Closed = true
	}
	d.pool = p
	d.flush()
	d.poolMu.Unlock()
	d.restock()
	return p
}

// Pool returns the deployment's attached prefork pool, or nil.
func (d *Deployment) Pool() *DevicePool {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	return d.pool
}

// Close closes the deployment's prefork pool, if any, and ends recycling:
// the ready and parked devices are dropped, and so is every device that
// still comes back (also under a pool a later Prefork attaches). Forks
// already handed out are unaffected; later Forks (and device-policy Runs)
// on a pooled deployment fail with ErrPoolClosed. The closed pool stays
// attached so its final Stats remain inspectable.
func (d *Deployment) Close() {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if d.pool != nil {
		d.pool.stats.Closed = true
	}
	d.flush()
	d.closed = true
}

// poolStats implements the serving layer's application interface: a
// deployment contributes its pool snapshot under its registered name.
func (d *Deployment) poolStats(name string, out map[string]PoolStats) {
	if p := d.Pool(); p != nil {
		out[name] = p.Stats()
	}
}

// Get is Fork on the pool's deployment: it takes a ready fork, or makes
// one inline when none is ready, and restocks the list to depth. The
// caller owns the device.
func (p *DevicePool) Get() (*ssd.Device, error) { return p.dep.Fork() }

// Quarantine reports that a fork of this pool turned out to be poisoned.
// The handed-out fork is the caller's to discard, never to recycle; the
// pool treats the ready and parked devices as suspect, drops them, and
// re-clones the ready list to depth from the pristine master before it
// returns. On a closed pool only the quarantine count is recorded.
func (p *DevicePool) Quarantine() {
	d := p.dep
	d.poolMu.Lock()
	p.stats.Quarantined++
	repair := d.pool == p && !p.stats.Closed
	if repair {
		p.stats.Repairs++
		d.flush()
	}
	d.poolMu.Unlock()
	if repair {
		d.restock()
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *DevicePool) Stats() PoolStats {
	d := p.dep
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	s := p.stats
	if d.pool == p {
		s.Idle = len(d.used) + len(d.ready)
	}
	return s
}
