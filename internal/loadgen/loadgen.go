package loadgen

import (
	"fmt"
	"math"
	"time"

	"conduit/internal/sim"
)

// Stream derives the seed of substream i of root seed, SplitMix64-style:
// the root state is advanced i+1 golden-gamma steps and passed through
// the SplitMix64 finalizer, which is exactly how SplitMix64 defines
// split(). The finalizer matters: it scrambles the arithmetic progression
// so derived seeds land pseudo-randomly in the generator's state space
// and substreams are decorrelated.
//
// The linear derivation it replaces — seed + id*0x9e3779b9 — handed the
// raw progression to the generator: stream states differed by small
// multiples of a 32-bit constant, so nearby (seed, id) pairs collided
// trivially (seed s with id k equals seed s+k*0x9e3779b9 with id 0,
// making "adjacent" seeds share whole client streams) and un-finalized
// states in arithmetic progression are exactly the inputs SplitMix64's
// own stream-splitting rule exists to avoid.
func Stream(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// An Arrival produces successive inter-arrival gaps from an explicitly
// seeded RNG. Implementations are stateful iterators (a burst process
// remembers which phase it is in); create a fresh value per schedule.
type Arrival interface {
	// Gap returns the time between the previous arrival and the next.
	Gap(rng *sim.RNG) time.Duration
}

// expGap draws an exponentially distributed gap at the given mean rate
// (requests per second) — the memoryless inter-arrival law of a Poisson
// process.
func expGap(rng *sim.RNG, qps float64) time.Duration {
	u := rng.Float64() // [0, 1)
	return time.Duration(-math.Log1p(-u) / qps * float64(time.Second))
}

// Poisson is the open-loop memoryless arrival process at a constant mean
// rate: independent exponential gaps, the standard model for aggregate
// request traffic from many independent clients.
type Poisson struct {
	QPS float64
}

// Gap implements Arrival.
func (p *Poisson) Gap(rng *sim.RNG) time.Duration { return expGap(rng, p.QPS) }

// The burst process alternates between phases whose rates differ by
// burstFactor, each lasting burstDwell on average; the diurnal process
// swings its rate by diurnalAmplitude around the mean over one
// diurnalPeriod, a compressed day.
const (
	burstFactor      = 8
	burstDwell       = 200 * time.Millisecond
	diurnalAmplitude = 0.8
	diurnalPeriod    = 10 * time.Second
)

// Burst is a two-state Markov-modulated Poisson process (on-off MMPP):
// the arrival rate alternates between a high and a low phase with
// exponentially distributed dwell times, producing the flash-crowd /
// quiet-period texture closed-loop generators can never emit. Rates are
// normalized so the long-run mean offered load is QPS.
type Burst struct {
	// QPS is the long-run mean rate.
	QPS float64

	started   bool
	high      bool
	remaining time.Duration
}

// rate returns the current phase's rate. With mean phase durations equal,
// the long-run mean is (hi+lo)/2 = QPS when hi = 2F/(F+1)*QPS, lo = hi/F.
func (b *Burst) rate() float64 {
	const f = burstFactor
	hi := b.QPS * 2 * f / (f + 1)
	if b.high {
		return hi
	}
	return hi / f
}

// Gap implements Arrival: it consumes phase dwell time until an arrival
// fires, toggling phases (and redrawing an exponential dwell) whenever
// the candidate gap overruns the current phase.
func (b *Burst) Gap(rng *sim.RNG) time.Duration {
	if !b.started {
		b.started = true
		b.high = true
		b.remaining = expGap(rng, 1/burstDwell.Seconds())
	}
	var gap time.Duration
	for {
		d := expGap(rng, b.rate())
		if d <= b.remaining {
			b.remaining -= d
			return gap + d
		}
		gap += b.remaining
		b.high = !b.high
		b.remaining = expGap(rng, 1/burstDwell.Seconds())
	}
}

// Diurnal modulates a Poisson process with a sinusoidal rate — a
// compressed day/night cycle:
// rate(t) = QPS * (1 + diurnalAmplitude*sin(2πt/diurnalPeriod)).
type Diurnal struct {
	// QPS is the mean rate over a whole period.
	QPS float64

	at time.Duration
}

// Gap implements Arrival: each gap is exponential at the instantaneous
// rate, evaluated at the process's accumulated position in the cycle.
func (d *Diurnal) Gap(rng *sim.RNG) time.Duration {
	rate := d.QPS * (1 + diurnalAmplitude*math.Sin(2*math.Pi*d.at.Seconds()/diurnalPeriod.Seconds()))
	gap := expGap(rng, rate)
	d.at += gap
	return gap
}

// Closed is the degenerate closed-loop "arrival" process: zero gaps. The
// schedule carries no timing — pacing comes from completions, i.e. the
// issuer must block on each request (Server.Do) instead of pacing
// submissions. It exists so closed-loop runs draw their (tenant,
// workload, policy) picks from the same seed-split machinery and can be
// recorded and replayed like any other trace.
type Closed struct{}

// Gap implements Arrival.
func (Closed) Gap(*sim.RNG) time.Duration { return 0 }

// NewArrival builds the named arrival process at the given mean rate.
// Names: "poisson", "burst", "diurnal", "closed".
func NewArrival(name string, qps float64) (Arrival, error) {
	if name != "closed" && qps <= 0 {
		return nil, fmt.Errorf("loadgen: arrival %q needs a positive rate (got %v)", name, qps)
	}
	switch name {
	case "poisson":
		return &Poisson{QPS: qps}, nil
	case "burst":
		return &Burst{QPS: qps}, nil
	case "diurnal":
		return &Diurnal{QPS: qps}, nil
	case "closed":
		return Closed{}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown arrival process %q (have poisson, burst, diurnal, closed)", name)
}

// Spec describes a deterministic traffic schedule.
type Spec struct {
	// Arrival names the arrival process: "poisson", "burst", "diurnal"
	// (open-loop, timed by QPS) or "closed" (untimed; needs MaxEvents).
	Arrival string
	// QPS is the mean offered load for open-loop arrivals.
	QPS float64
	// Duration bounds the schedule's span (events with At < Duration).
	Duration time.Duration
	// MaxEvents caps the schedule length; 0 means Duration-bounded only.
	MaxEvents int
	// Seed is the root RNG seed; every stochastic choice below draws from
	// a Stream-derived substream of it.
	Seed uint64
	// Tenants is the number of accounting principals events round-robin
	// across (min 1), named "tenant-00", "tenant-01", ...
	Tenants int
	// Workloads and Policies are the pick sets each event draws from.
	Workloads []string
	Policies  []string
	// SLO, when nonzero, stamps every event with a deadline budget.
	SLO time.Duration
}

// Generate expands spec into its timestamped event schedule. The same
// spec always yields the identical schedule: arrivals, workload picks,
// and policy picks each consume an independent substream of spec.Seed, so
// changing the pick sets never perturbs the arrival timing and vice
// versa.
func Generate(spec Spec) ([]Event, error) {
	if len(spec.Workloads) == 0 || len(spec.Policies) == 0 {
		return nil, fmt.Errorf("loadgen: schedule needs at least one workload and one policy")
	}
	arr, err := NewArrival(spec.Arrival, spec.QPS)
	if err != nil {
		return nil, err
	}
	if _, closed := arr.(Closed); closed && spec.MaxEvents <= 0 {
		return nil, fmt.Errorf("loadgen: closed-loop schedule needs MaxEvents (it has no timing to bound it)")
	}
	if spec.Duration <= 0 && spec.MaxEvents <= 0 {
		return nil, fmt.Errorf("loadgen: schedule needs a Duration or MaxEvents bound")
	}
	tenants := spec.Tenants
	if tenants < 1 {
		tenants = 1
	}
	var (
		arrivals  = sim.NewRNG(Stream(spec.Seed, 0))
		workloads = sim.NewRNG(Stream(spec.Seed, 1))
		policies  = sim.NewRNG(Stream(spec.Seed, 2))
	)
	var events []Event
	var at time.Duration
	for i := 0; spec.MaxEvents <= 0 || i < spec.MaxEvents; i++ {
		at += arr.Gap(arrivals)
		if spec.Duration > 0 && at >= spec.Duration {
			break
		}
		events = append(events, Event{
			At:       at,
			Tenant:   fmt.Sprintf("tenant-%02d", i%tenants),
			Workload: spec.Workloads[workloads.Intn(len(spec.Workloads))],
			Policy:   spec.Policies[policies.Intn(len(spec.Policies))],
			Deadline: spec.SLO,
		})
	}
	return events, nil
}
