package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared. On the two-vCPU VM it
// was built on, an identical 300 ms simulation takes anywhere from 220 to
// 420 ms, in phases lasting seconds to minutes, while a pure ALU loop
// stays within ±4%; medians over a 15 s window move by 10-20% from one
// invocation to the next. A calibrator times a fixed reference kernel
// between operations throughout the invocation, and the gated timings are
// divided by (median sample / refNominal)^refElasticity.
//
// The elasticity is measured: over 80 invocations of the four workloads,
// log operation time against log reference time had a median slope of
// 0.77 (20 fits, 0.19 to 1.29). With 0.75, over two sets of ten
// invocations per workload, calibrated timings spread by 3-10% between
// their quartiles where the same runs' raw timings spread by 5-28%.

const (
	// refNominal is a typical reference sample on that VM.
	refNominal = 50 * time.Millisecond
	// refElasticity is how strongly operation time follows the reference.
	refElasticity = 0.75
	// calEvery is how often operations pause for a reference sample.
	calEvery = 400 * time.Millisecond
)

var refSink uint64

type refNode struct {
	next *refNode
	v    [6]uint64
}

// reference builds and probes a map and allocates chains of small
// objects: hashing, cache misses and the allocator, which is where the
// simulator's time goes when the machine slows it down.
func reference() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[uint64]uint64)
	for i := 0; i < 150_000; i++ {
		m[next()] = uint64(i)
	}
	for i := 0; i < 600_000; i++ {
		refSink += m[next()]
	}
	var head *refNode
	for i := 0; i < 400_000; i++ {
		head = &refNode{next: head}
		if i%1000 == 0 {
			head = nil
		}
	}
}

// calibrator samples the reference kernel every calEvery while no
// operation runs: operations hold gate for reading, a sample holds it
// for writing. A sample's time, and the collections around it, are
// excluded from the measurement.
type calibrator struct {
	gate sync.RWMutex

	mu      sync.Mutex
	samples []time.Duration
	spent   time.Duration // operations paused
	allocs  uint64        // bytes the samples allocated

	stop, done chan struct{}
}

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

// sample times the reference kernel on a clean heap with the collector
// off, so the time depends on the machine and not on the garbage the
// workload left behind.
func (c *calibrator) sample() {
	c.gate.Lock()
	defer c.gate.Unlock()
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc := debug.SetGCPercent(-1)
	t1 := time.Now()
	reference()
	d := time.Since(t1)
	debug.SetGCPercent(gc)
	runtime.GC()
	held := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, d)
	c.spent += held
	c.allocs += m1.TotalAlloc - m0.TotalAlloc
}

// halt stops sampling and waits for the sampler to exit.
func (c *calibrator) halt() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

// hold keeps samples out until the returned function is called. A nil
// calibrator holds nothing.
func (c *calibrator) hold() func() {
	if c == nil {
		return func() {}
	}
	c.gate.RLock()
	return c.gate.RUnlock
}

// paused returns the time operations have been paused for and the bytes
// the samples allocated, so far.
func (c *calibrator) paused() (time.Duration, uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent, c.allocs
}

// slowdown is the factor the gated timings are divided by: 1 on a
// machine whose median reference sample takes refNominal.
func slowdown(ref time.Duration) float64 {
	return math.Pow(float64(ref)/float64(refNominal), refElasticity)
}

// ref returns the median sample and the sample count; without a
// calibrator, refNominal and 0.
func (c *calibrator) ref() (time.Duration, int) {
	if c == nil {
		return refNominal, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := append([]time.Duration(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return percentile(s, 50), len(s)
}
