package main

import (
	"container/heap"
	"time"
)

// The sandbox this benchmark runs in changes speed by 10-40 % on every
// timescale from a fraction of a second to minutes, for everything that
// runs on it alike, and far more between two runs than inside one. A
// fixed calibration kernel that calls nothing of the program is therefore
// timed between slices of every window, and every host-time end-to-end
// metric is reported as it would read on a machine on which the kernel
// takes refKernelMS: a change to the program moves the metric, a change
// of the machine moves kernel and metric together and cancels.

const (
	// sliceLen is how long a window issues requests between two
	// calibrations: short, so that workload and kernel see the same
	// machine; long against the kernel, so that nine tenths of a window
	// are spent measuring.
	sliceLen = 200 * time.Millisecond

	// refKernelMS is the kernel's time on the reference machine: this
	// sandbox's mean over half an hour, so that values at reference speed
	// read like raw ones here.
	refKernelMS = 19.0

	mixIters  = 5_000_000
	queueReps = 2
	queueLen  = 20_000
)

// kernelQueue is the kernel's priority queue; container/heap boxes every
// element, as an event queue of closures does.
type kernelQueue []uint64

func (q kernelQueue) Len() int            { return len(q) }
func (q kernelQueue) Less(i, j int) bool  { return q[i] < q[j] }
func (q kernelQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *kernelQueue) Push(x interface{}) { *q = append(*q, x.(uint64)) }
func (q *kernelQueue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// kernel is the calibration work: an integer-mixing loop, then a heap
// and a map filled and drained. The first half runs from registers, the
// second chases pointers, allocates and misses caches, as the simulator's
// event queue and tables do. It returns its time and a value that depends
// on all of the work.
func kernel() (time.Duration, uint64) {
	start := time.Now()
	var acc uint64
	x := uint64(1)
	for i := 0; i < mixIters; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		acc += z ^ (z >> 31)
	}
	for rep := 0; rep < queueReps; rep++ {
		q := &kernelQueue{}
		seen := make(map[uint64]int)
		for i := 0; i < queueLen; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			heap.Push(q, x>>20)
			seen[x>>44]++
		}
		for q.Len() > 0 {
			acc += heap.Pop(q).(uint64)
		}
		acc += uint64(len(seen))
	}
	return time.Since(start), acc
}

// kernelSink keeps the kernel's result alive.
var kernelSink uint64

// calibrate times the kernel on two goroutines at once — the sandbox has
// two vCPUs, and a request's work (client and engine on one, pool
// refiller and collector on the other) uses both — and returns their
// mean in milliseconds.
func calibrate() float64 {
	type result struct {
		d   time.Duration
		acc uint64
	}
	other := make(chan result)
	go func() {
		d, acc := kernel()
		other <- result{d, acc}
	}()
	d, acc := kernel()
	o := <-other
	kernelSink += acc + o.acc
	return float64(d+o.d) / 2e6
}

// measureCalibrated is measure cut into slices of sliceLen with one
// calibration after each. The window's counts, times and allocation
// cover the slices only; lim bounds slices and calibrations together.
func measureCalibrated(r runner, lim limit) window {
	w := newWindow()
	for start := time.Now(); ; {
		slice := limit{d: sliceLen}
		if lim.n > 0 {
			slice.n = lim.n - w.done
		} else if left := lim.d - time.Since(start); left < sliceLen {
			slice.d = left
		}
		w.run(r, slice)
		w.kernelMS = append(w.kernelMS, calibrate())
		if lim.reached(start, w.done) {
			return w
		}
	}
}

// slowdown is how much slower than the reference machine the window's
// calibrations ran: 1.1 means that everything took a tenth longer.
func (w window) slowdown() float64 { return mean(w.kernelMS) / refKernelMS }
