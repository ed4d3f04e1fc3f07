package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The host-speed probe.
//
// On a shared host the CPUs' speed swings by 20–40% for minutes at a
// time, with other tenants' load on the cores and caches this
// container shares. Every op of a run feels the same swing, so two runs
// of the same code a few minutes apart differ by that much in every
// timing, however long each run is. The benchmark therefore measures
// the host next to the program: a fixed kernel of its own
// (probeKernel) runs between ops, and every time metric is scaled by
// the kernel's median time against probeRefMS. The kernel calls
// nothing in the repository, so no change to the program can move it;
// the unscaled figures are printed in the context line.

// probeIters sizes the kernel to about a millisecond, well under 1% of
// an op pair or a 100 ms stretch of requests.
const probeIters = 100_000

// probeRefMS is the kernel's time on the reference host (the 2-CPU
// Xeon container of README.md's figures, both CPUs busy): a run whose
// probes take probeRefMS reports its times unscaled.
const probeRefMS = 1.0

// probeTableLen is the kernel's working set in uint32s (32 KiB), an
// L1-sized table like the annealers' grid words and memo tables.
const probeTableLen = 1 << 13

// probeKernel runs a fixed annealing-like loop — xorshift draws, two
// table reads, a data-dependent swap — and returns its time in ms.
func probeKernel() float64 {
	var t [probeTableLen]uint32
	for i := range t {
		t[i] = uint32(i) * 2654435761 >> 7
	}
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint32
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a, b := x&(probeTableLen-1), (x>>20)&(probeTableLen-1)
		if int32(t[a]-t[b]) > 0 || (x>>40)&7 == 0 {
			t[a], t[b] = t[b], t[a]
		}
		acc += t[a]
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	probeSink.Add(uint64(acc))
	return ms
}

// probeSink keeps the kernel's result live.
var probeSink atomic.Uint64

// hostProbe collects probe times.
type hostProbe struct {
	mu sync.Mutex
	ms []float64
}

// sample runs the kernel once on the calling goroutine.
func (p *hostProbe) sample() {
	ms := probeKernel()
	p.mu.Lock()
	p.ms = append(p.ms, ms)
	p.mu.Unlock()
}

// sampleAll runs the kernel on n goroutines at once, so it sees the
// host as a phase that keeps n CPUs busy does.
func (p *hostProbe) sampleAll(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.sample()
		}()
	}
	wg.Wait()
}

// slowdown is the host's speed against the reference: the probes'
// median time over probeRefMS (2 means the host ran at half speed).
func (p *hostProbe) slowdown() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return median(p.ms) / probeRefMS
}
