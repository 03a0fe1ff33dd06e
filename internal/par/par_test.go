package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRangesLowestFailure fails a set of items and requires the error of
// the lowest one at every worker count, with every range below it checked
// and the split covering [0, n) exactly once when nothing fails.
func TestRangesLowestFailure(t *testing.T) {
	const n, chunk = 1000, 7
	for _, workers := range []int{1, 2, 3, 8} {
		for _, bad := range [][]int{nil, {999}, {0}, {500, 13, 700}, {6, 7}, {993, 994}} {
			isBad := make([]bool, n)
			for _, v := range bad {
				isBad[v] = true
			}
			seen := make([]atomic.Int32, n)
			err := Ranges(n, chunk, workers, func(w, lo, hi int) error {
				if w < 0 || w >= workers {
					t.Errorf("worker index %d out of [0,%d)", w, workers)
				}
				for v := lo; v < hi; v++ {
					seen[v].Add(1)
					if isBad[v] {
						return fmt.Errorf("item %d", v)
					}
				}
				return nil
			})
			first := n
			for _, v := range bad {
				first = min(first, v)
			}
			want := "<nil>"
			if first < n {
				want = fmt.Sprintf("item %d", first)
			}
			if fmt.Sprint(err) != want {
				t.Fatalf("%d workers, bad %v: error %v, want %s", workers, bad, err, want)
			}
			for v := 0; v < first; v++ {
				if got := seen[v].Load(); got != 1 {
					t.Fatalf("%d workers, bad %v: item %d checked %d times", workers, bad, v, got)
				}
			}
		}
	}
}
