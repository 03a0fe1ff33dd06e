package serve

import (
	"testing"
	"time"
)

// fakeClock drives the breaker without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	if !b.Allow() || b.Tripped() {
		t.Fatal("fresh breaker not closed")
	}
	b.Fail()
	b.Fail()
	if b.Tripped() {
		t.Fatal("tripped before threshold")
	}
	b.Fail()
	if !b.Tripped() {
		t.Fatal("third consecutive failure did not trip")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a task")
	}
	// Further failures while open change nothing.
	b.Fail()
	if b.Allow() || !b.Tripped() {
		t.Fatal("failure while open changed the breaker")
	}
}

func TestBreakerSuccessResetsFailStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Fail()
	b.Fail()
	b.Success()
	if b.Tripped() {
		t.Fatal("success in closed state tripped the breaker")
	}
	// The streak restarted: two more failures still don't trip.
	b.Fail()
	b.Fail()
	if b.Tripped() {
		t.Fatal("streak not reset by success")
	}
	b.Fail()
	if !b.Tripped() {
		t.Fatal("threshold not reached after reset streak")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Fail()
	if !b.Tripped() {
		t.Fatal("threshold 1 should trip on first failure")
	}
	if b.Allow() {
		t.Fatal("admitted during cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() || !b.Tripped() {
		t.Fatal("cooldown elapsed but no half-open probe")
	}
	// Probe success closes.
	b.Success()
	if b.Tripped() || !b.Allow() {
		t.Fatal("half-open success did not close")
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Fail()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Fail()
	if b.Allow() {
		t.Fatal("reopened breaker admitted before a second cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.Tripped() {
		t.Fatal("second probe did not recover")
	}
}
