// Package fault is a deterministic, seeded fault-injection layer for the
// serving stack.  An Injector holds a schedule of fault windows — latency
// spikes, request-timeout storms, per-shard stalls, worker panics,
// simulated memory pressure — and the serve layer consults it at a
// handful of fixed points (request entry, pool task start, tier
// selection).  Chaos tests and `navsim chaos` build injectors from a
// compact schedule string (see Parse); production servers hold a nil
// *Injector, and every probe method no-ops on a nil receiver, so the
// disabled cost is one predictable nil check per probe point.
//
// Determinism: every probability draw comes from one SplitMix64 stream
// seeded at construction and indexed by an atomic sequence counter, so the
// stream of decisions is a pure function of the seed.  Which concurrent
// request observes which decision still depends on goroutine scheduling —
// chaos tests therefore assert aggregate contracts (bounded p99, nonzero
// goodput, zero escaped panics), while the unit tests pin the decision
// stream itself.
//
// Windows are expressed relative to Activate: a fault with Start s and
// Duration d fires only while s <= elapsed < s+d (Duration 0 means
// forever).  Before Activate is called the injector is dormant and every
// probe reports "no fault", which lets a harness bring a server up
// cleanly, take baseline measurements, and only then open the fault
// window.
package fault

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Kind names one fault mechanism.
type Kind string

const (
	// KindLatency delays a fraction P of requests by Delay at request
	// entry, before admission — a slow-network / GC-pause stand-in.
	KindLatency Kind = "latency"
	// KindStorm is a request-timeout storm: mechanically identical to
	// KindLatency but conventionally configured with Delay beyond the
	// server's request timeout, so the affected requests are answered by
	// the timeout layer, never by a worker.
	KindStorm Kind = "storm"
	// KindStall makes every pool task picked up by the matching shard
	// sleep for Delay before running — a wedged worker / bad core.
	KindStall Kind = "stall"
	// KindPanic makes a fraction P of pool tasks on the matching shard
	// panic before running the request — the worker-crash drill that
	// exercises recovery and circuit breaking.
	KindPanic Kind = "panic"
	// KindMem simulates memory pressure while its window is open: the
	// serve layer stops growing the BFS field cache and degrades to the
	// landmark-bound approximate tier instead.
	KindMem Kind = "mem"
)

// Fault is one scheduled fault window.
type Fault struct {
	Kind Kind
	// Shard selects which pool shard a stall/panic applies to; -1 means
	// every shard.  Ignored by the request-level kinds.
	Shard int
	// P is the per-event probability in [0,1] for latency/storm/panic
	// draws (stall and mem are unconditional while their window is open).
	P float64
	// Delay is the injected sleep for latency/storm/stall.
	Delay time.Duration
	// Start and Duration bound the fault window relative to Activate.
	// Duration 0 means the window never closes.
	Start    time.Duration
	Duration time.Duration
}

// Injector evaluates a fault schedule.  Safe for concurrent use; a nil
// *Injector is the canonical "fault injection disabled" value.
type Injector struct {
	faults []Fault
	seed   uint64
	seq    atomic.Uint64
	// activatedAt is the UnixNano timestamp of Activate, 0 while dormant.
	activatedAt atomic.Int64
}

// New builds an injector over the given schedule.  The injector starts
// dormant; call Activate to open the clock on the fault windows.
func New(seed uint64, faults ...Fault) *Injector {
	return &Injector{faults: faults, seed: seed}
}

// Activate starts (or restarts) the schedule clock.  Idempotent in the
// sense that re-activating simply re-bases the windows at "now".
func (i *Injector) Activate() {
	if i == nil {
		return
	}
	i.activatedAt.Store(time.Now().UnixNano())
}

// Deactivate returns the injector to the dormant state: every subsequent
// probe reports "no fault" until the next Activate.
func (i *Injector) Deactivate() {
	if i == nil {
		return
	}
	i.activatedAt.Store(0)
}

// CheckShards rejects a schedule whose stall or panic names a shard that a
// pool of n workers does not have, since such a fault would never fire.
// A nil injector passes.
func (i *Injector) CheckShards(n int) error {
	if i == nil {
		return nil
	}
	for _, f := range i.faults {
		if (f.Kind == KindStall || f.Kind == KindPanic) && f.Shard >= n {
			return fmt.Errorf("fault: %s names shard %d, but the pool has %d workers (shards 0 to %d)", f.Kind, f.Shard, n, n-1)
		}
	}
	return nil
}

func (i *Injector) elapsed() (time.Duration, bool) {
	at := i.activatedAt.Load()
	if at == 0 {
		return 0, false
	}
	return time.Duration(time.Now().UnixNano() - at), true
}

func (i *Injector) open(f *Fault, elapsed time.Duration) bool {
	if elapsed < f.Start {
		return false
	}
	return f.Duration == 0 || elapsed < f.Start+f.Duration
}

// draw returns the next deterministic uniform in [0,1): SplitMix64 over
// seed XOR an atomic sequence number, so the decision stream is a pure
// function of the seed while staying lock-free under concurrency.
func (i *Injector) draw() float64 {
	s := i.seed + 0x9e3779b97f4a7c15*(1+i.seq.Add(1))
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

func (i *Injector) hit(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return i.draw() < p
}

// RequestDelay returns the injected delay for the next incoming request —
// the sum of every open latency/storm window whose probability draw hits.
// Zero means the request proceeds untouched.
func (i *Injector) RequestDelay() time.Duration {
	if i == nil {
		return 0
	}
	elapsed, on := i.elapsed()
	if !on {
		return 0
	}
	var d time.Duration
	for idx := range i.faults {
		f := &i.faults[idx]
		if (f.Kind == KindLatency || f.Kind == KindStorm) && i.open(f, elapsed) && i.hit(f.P) {
			d += f.Delay
		}
	}
	return d
}

// StallDelay returns how long a pool task on the given shard must sleep
// before running (a wedged worker), or zero.
func (i *Injector) StallDelay(shard int) time.Duration {
	if i == nil {
		return 0
	}
	elapsed, on := i.elapsed()
	if !on {
		return 0
	}
	var d time.Duration
	for idx := range i.faults {
		f := &i.faults[idx]
		if f.Kind == KindStall && (f.Shard < 0 || f.Shard == shard) && i.open(f, elapsed) {
			d += f.Delay
		}
	}
	return d
}

// InjectPanic reports whether the next pool task on the given shard
// should panic.
func (i *Injector) InjectPanic(shard int) bool {
	if i == nil {
		return false
	}
	elapsed, on := i.elapsed()
	if !on {
		return false
	}
	for idx := range i.faults {
		f := &i.faults[idx]
		if f.Kind == KindPanic && (f.Shard < 0 || f.Shard == shard) && i.open(f, elapsed) && i.hit(f.P) {
			return true
		}
	}
	return false
}

// MemoryPressure reports whether a simulated memory-pressure window is
// open.
func (i *Injector) MemoryPressure() bool {
	if i == nil {
		return false
	}
	elapsed, on := i.elapsed()
	if !on {
		return false
	}
	for idx := range i.faults {
		f := &i.faults[idx]
		if f.Kind == KindMem && i.open(f, elapsed) {
			return true
		}
	}
	return false
}

// validate rejects malformed faults at construction time, so schedule
// errors surface when the harness starts rather than mid-drill.
func (f *Fault) validate() error {
	switch f.Kind {
	case KindLatency, KindStorm:
		if f.Delay <= 0 {
			return fmt.Errorf("fault: %s needs a positive delay", f.Kind)
		}
	case KindStall:
		if f.Delay <= 0 {
			return fmt.Errorf("fault: stall needs a positive delay")
		}
	case KindPanic:
	case KindMem:
	default:
		return fmt.Errorf("fault: unknown kind %q", f.Kind)
	}
	if f.Shard < -1 {
		return fmt.Errorf("fault: %s shard %d: want a shard index, or -1 for every shard", f.Kind, f.Shard)
	}
	if f.P < 0 || f.P > 1 || math.IsNaN(f.P) {
		return fmt.Errorf("fault: %s probability %v out of [0,1]", f.Kind, f.P)
	}
	if f.Start < 0 || f.Duration < 0 {
		return fmt.Errorf("fault: %s window (start %s, dur %s) must be non-negative", f.Kind, f.Start, f.Duration)
	}
	return nil
}
