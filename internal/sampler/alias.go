// Package sampler provides the O(1) discrete-sampling primitives behind the
// augmentation schemes' Contact implementations: Walker/Vose alias tables
// (O(k) build, O(1) draw, zero allocations per draw) and epoch-marked dense
// memo buffers that reset in O(1).
//
// The package exists so that every scheme can honour the augment.Instance
// cost contract — Prepare may be arbitrarily heavy, Contact must be O(1)
// amortised and allocation-free — without each scheme reinventing the same
// machinery.  Outcomes are int32 so the tables compose directly with
// graph.NodeID and with 1-based matrix column labels alike.
package sampler

import (
	"fmt"
	"math"

	"navaug/internal/xrand"
)

// Alias is a Walker alias table over k discrete outcomes 0..k-1.  It is
// immutable after construction and safe for concurrent Draw calls (all
// mutable state lives in the caller's RNG).
//
// A zero-weight outcome is never drawn: its acceptance probability is
// exactly 0 and no positive-weight outcome ever aliases to it.
type Alias struct {
	prob  []float64 // acceptance probability of outcome i
	alias []int32   // outcome drawn when i is rejected
}

// NewAlias builds an alias table from the given non-negative weights.  The
// distribution is weights normalised by their sum.  It errors on an empty
// slice, a negative/NaN/Inf weight, or an all-zero total.
func NewAlias(weights []float64) (Alias, error) {
	a := Alias{
		prob:  make([]float64, len(weights)),
		alias: make([]int32, len(weights)),
	}
	scratch := make([]int32, len(weights))
	if err := BuildInto(a.prob, a.alias, weights, scratch); err != nil {
		return Alias{}, err
	}
	return a, nil
}

// Draw returns an outcome in [0, len(weights)) with probability
// proportional to the weight it was built with.  O(1), allocation-free.
func (a Alias) Draw(rng *xrand.RNG) int32 {
	return Draw(a.prob, a.alias, rng)
}

// Draw samples from a (prob, alias) pair previously filled by BuildInto.
// Exposed as a free function so table groups that keep each row as a bare
// (prob, alias) pair can draw without wrapping it in an Alias.
func Draw(prob []float64, alias []int32, rng *xrand.RNG) int32 {
	i := int32(rng.Uint64n(uint64(len(prob))))
	if rng.Float64() < prob[i] {
		return i
	}
	return alias[i]
}

// BuildInto fills prob and alias (both len(weights)) with the Walker alias
// table of weights using Vose's O(k) construction.  scratch must have length
// len(weights); it is used for the small/large worklists so repeated builds
// (e.g. one per node or per matrix row) allocate nothing.
//
// Invariant established: an outcome with weight exactly 0 gets acceptance
// probability 0 and is aliased to a positive-weight outcome, so it can never
// be returned by Draw.
func BuildInto(prob []float64, alias []int32, weights []float64, scratch []int32) error {
	k := len(weights)
	if k == 0 {
		return fmt.Errorf("sampler: alias table needs at least one outcome")
	}
	if len(prob) != k || len(alias) != k || len(scratch) != k {
		return fmt.Errorf("sampler: table buffers have length (%d,%d,%d), want %d",
			len(prob), len(alias), len(scratch), k)
	}
	total := 0.0
	heaviest := int32(-1)
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("sampler: weight %d is %v, want finite and >= 0", i, w)
		}
		if heaviest < 0 || w > weights[heaviest] {
			heaviest = int32(i)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("sampler: weights sum to %v, want > 0", total)
	}

	// Scale weights so they average to 1; the worklists partition outcomes
	// into donors (scaled < 1, stored from the front of scratch) and
	// receivers (scaled >= 1, stored from the back).
	scale := float64(k) / total
	smallTop, largeBot := 0, k
	for i, w := range weights {
		prob[i] = w * scale
		if prob[i] < 1 {
			scratch[smallTop] = int32(i)
			smallTop++
		} else {
			largeBot--
			scratch[largeBot] = int32(i)
		}
	}
	smallTop, largeBot = pairVose(prob, alias, scratch, smallTop, largeBot)
	// Leftovers hold (up to rounding) exactly their own column: accept
	// always.  A zero-weight leftover can only appear through floating-point
	// drift; keep it undrawable by aliasing it to the heaviest outcome.
	finalise := func(i int32) {
		if weights[i] == 0 {
			prob[i] = 0
			alias[i] = heaviest
			return
		}
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range scratch[largeBot:] {
		finalise(i)
	}
	for smallTop > 0 {
		smallTop--
		finalise(scratch[smallTop])
	}
	return nil
}

// pairVose is Vose's pairing loop, shared by every table build.  On entry
// prob holds the weights scaled to average 1, scratch[:smallTop] the donors
// (scaled < 1) and scratch[largeBot:] the receivers (scaled >= 1).  Each
// step pairs the top donor with the bottom receiver, which donates the
// donor's deficit.  It returns the bounds of the leftovers, which the
// caller finalises: scratch[:smallTop] and scratch[largeBot:].
func pairVose(prob []float64, alias, scratch []int32, smallTop, largeBot int) (int, int) {
	k := len(scratch)
	for smallTop > 0 && largeBot < k {
		smallTop--
		s := scratch[smallTop]
		l := scratch[largeBot]
		alias[s] = l
		// l donates the deficit 1-prob[s] of s's column.
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			// l has given away enough mass to become a donor itself; its slot
			// in the worklist moves from the large end to the small end.
			largeBot++
			scratch[smallTop] = l
			smallTop++
		}
	}
	return smallTop, largeBot
}
