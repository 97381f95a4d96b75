package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared hosts whose speed drifts by tens of percent
// within minutes: neighbours contend for the cores, caches and memory, and
// the guest sees no steal time. The wall time of identical work drifts
// with it, so a timed run measures the host alongside the workload. A
// fixed probe runs between units of work, outside the timed windows, and
// each unit's wall time is divided by the host's slowdown, the probe's
// time relative to nominal, averaged over the probes on either side of
// the unit. The probe is three small frozen kernels that contention slows
// in different ways: hashing (core arithmetic), a pointer chase through
// 64 MiB (dependent loads that miss the caches) and a sort (branchy
// in-cache work). Their geometric mean weighs the three equally.

const (
	chaseWords = 1 << 24 // 64 MiB of uint32
	chaseSteps = 1 << 16
	sortKeys   = 1 << 16
	hashBlocks = 160 // of hashBlock bytes
	hashBlock  = 64 << 10

	// probeNominal is the geometric mean of the three kernel times, in
	// seconds, at which the slowdown reads 1: the median on the
	// calibration host (README.md, noise calibration).
	probeNominal = 0.012
)

// probe holds the kernels' inputs. They live outside the Go heap, so the
// probe changes neither the collector's pacing nor the heap metrics; the
// kernels allocate nothing.
type probe struct {
	chase      []uint32 // one cycle through every word
	keys, work []float64
	block      []byte
	sink       uint32
}

func newProbe() (*probe, error) {
	const keyBytes = 8 * sortKeys
	mem, err := syscall.Mmap(-1, 0, 4*chaseWords+2*keyBytes+hashBlock,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe: map its inputs: %w", err)
	}
	keys := mem[4*chaseWords:]
	p := &probe{
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseWords),
		keys:  unsafe.Slice((*float64)(unsafe.Pointer(&keys[0])), sortKeys),
		work:  unsafe.Slice((*float64)(unsafe.Pointer(&keys[keyBytes])), sortKeys),
		block: keys[2*keyBytes:],
	}
	// Sattolo's shuffle: a random permutation that is a single cycle, so
	// the chase visits every word before it repeats.
	x := uint64(0x6a09e667f3bcc908)
	for i := range p.chase {
		p.chase[i] = uint32(i)
	}
	for i := chaseWords - 1; i > 0; i-- {
		j := int(splitmix(&x) % uint64(i))
		p.chase[i], p.chase[j] = p.chase[j], p.chase[i]
	}
	for i := range p.keys {
		p.keys[i] = float64(splitmix(&x) >> 11)
	}
	for i := range p.block {
		p.block[i] = byte(splitmix(&x))
	}
	return p, nil
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// slowdown runs the three kernels and returns their geometric-mean time
// over probeNominal.
func (p *probe) slowdown() float64 {
	t0 := time.Now()
	for i := 0; i < hashBlocks; i++ {
		sum := sha256.Sum256(p.block)
		p.block[0] = sum[0]
	}
	t1 := time.Now()
	at := p.chase[p.sink%chaseWords]
	for i := 0; i < chaseSteps; i++ {
		at = p.chase[at]
	}
	p.sink = at
	t2 := time.Now()
	copy(p.work, p.keys)
	slices.Sort(p.work)
	t3 := time.Now()
	g := math.Cbrt(t1.Sub(t0).Seconds() * t2.Sub(t1).Seconds() * t3.Sub(t2).Seconds())
	return g / probeNominal
}

// meter times one set-up or repetition as segments separated by probes.
// A workload calls split between its units of work, so that a long
// repetition is scaled by the host's speed during each unit rather than
// once. A nil meter probes nothing and split is a no-op: traced runs and
// tests use it.
type meter struct {
	p      *probe
	start  time.Time
	before float64 // slowdown probed when the open segment started

	wall, scaled time.Duration // summed over closed segments
}

// begin probes and opens the first segment.
func (m *meter) begin() {
	if m == nil {
		return
	}
	m.wall, m.scaled = 0, 0
	m.before = m.p.slowdown()
	m.start = time.Now()
}

// split closes the open segment, probes, and opens the next.
func (m *meter) split() {
	if m == nil {
		return
	}
	m.close()
	m.start = time.Now()
}

// stop closes the last segment.
func (m *meter) stop() {
	if m != nil {
		m.close()
	}
}

// close ends the open segment and scales it by the mean of the slowdowns
// probed on either side of it.
func (m *meter) close() {
	seg := time.Since(m.start)
	after := m.p.slowdown()
	m.wall += seg
	m.scaled += time.Duration(float64(seg) * 2 / (m.before + after))
	m.before = after
}
