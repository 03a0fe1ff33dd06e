package serve

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker machine.
type breakerState int

const (
	bkClosed   breakerState = iota // healthy: tasks flow
	bkOpen                         // tripped: shard quarantined until cooldown
	bkHalfOpen                     // cooldown over: admit probe tasks
)

// breaker is the per-shard circuit breaker: threshold consecutive panics
// trip it open, quarantining the shard for cooldown; the first task after
// the cooldown runs as a probe (half-open) and either closes the breaker
// or re-trips it.  One breaker guards exactly one worker goroutine, but
// stats readers poll concurrently, hence the mutex.  now is injectable so
// the state machine is unit-testable without sleeping.
type breaker struct {
	mu        sync.Mutex
	state     breakerState
	fails     int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	now       func() time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether the shard may take the next task.  An open breaker
// refuses until the cooldown elapses, then transitions to half-open and
// admits a single probe (the guarded worker is one goroutine, so "single"
// is structural).
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == bkOpen {
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = bkHalfOpen
	}
	return true
}

// Fail records a task failure.  It trips the breaker open from closed
// once threshold consecutive failures accumulate, and instantly from a
// failed half-open probe.
func (b *breaker) Fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case bkHalfOpen:
		b.state = bkOpen
		b.openedAt = b.now()
		b.fails = 0
	case bkClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = bkOpen
			b.openedAt = b.now()
			b.fails = 0
		}
	}
}

// Success records a clean task; it closes a half-open breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == bkHalfOpen {
		b.state = bkClosed
	}
}

// Tripped reports whether the breaker is currently not closed (open or
// probing), for stats.
func (b *breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != bkClosed
}
