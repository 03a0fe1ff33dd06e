package label

import (
	"fmt"
	"testing"
	"testing/quick"

	"navaug/internal/decomp"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

func TestLevelKnownValues(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 0, 4: 2, 5: 0, 6: 1, 7: 0, 8: 3, 12: 2, 1024: 10, 1025: 0}
	for x, want := range cases {
		if got := Level(x); got != want {
			t.Fatalf("Level(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestLevelPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Level(0)
}

func TestAncestorDefinition(t *testing.T) {
	// x = 3 = binary 11 has level 0; per the paper A(3) starts 3, 2, 4, 8.
	wants := []int{3, 2, 4, 8, 16}
	for j, want := range wants {
		if got := Ancestor(3, j); got != want {
			t.Fatalf("Ancestor(3,%d) = %d, want %d", j, got, want)
		}
	}
	// x = 12 = 1100 has level 2: ancestors 12, 8, 16.
	if Ancestor(12, 0) != 12 || Ancestor(12, 1) != 8 || Ancestor(12, 2) != 16 {
		t.Fatalf("Ancestor(12, ·) = %d,%d,%d", Ancestor(12, 0), Ancestor(12, 1), Ancestor(12, 2))
	}
}

func TestAncestorLevelIncreases(t *testing.T) {
	check := func(raw uint16, jRaw uint8) bool {
		x := 1 + int(raw%5000)
		j := int(jRaw % 10)
		return Level(Ancestor(x, j)) == Level(x)+j
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAncestorsRespectsBound(t *testing.T) {
	// The non-monotonicity case from the doc comment: with maxValue=5 the
	// only qualifying ancestor of 7 (besides none of 7,6) is 4.
	got := Ancestors(7, 5)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("Ancestors(7,5) = %v, want [4]", got)
	}
	got = Ancestors(3, 20)
	want := []int{3, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("Ancestors(3,20) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ancestors(3,20) = %v, want %v", got, want)
		}
	}
}

func TestAncestorsCountIsLogarithmic(t *testing.T) {
	check := func(raw uint16) bool {
		x := 1 + int(raw)
		maxValue := 65536
		anc := Ancestors(x, maxValue)
		// at most 1 + log2(maxValue) ancestors
		if len(anc) > 17 {
			return false
		}
		for _, a := range anc {
			if a < 1 || a > maxValue || !IsAncestor(a, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// ancestorsReference is the append loop Ancestors ran before it sized its
// result up front.
func ancestorsReference(x, maxValue int) []int {
	if maxValue < 1 {
		return nil
	}
	k := Level(x)
	var out []int
	for j := 0; k+j < 62 && (1<<uint(k+j)) <= maxValue; j++ {
		if a := Ancestor(x, j); a <= maxValue {
			out = append(out, a)
		}
	}
	return out
}

// TestAncestorsMatchesAppendLoop pins Ancestors against the append loop it
// replaced, and checks that the result is allocated once, at capacity
// ⌊log2 maxValue⌋+1.
func TestAncestorsMatchesAppendLoop(t *testing.T) {
	cases := []struct{ x, maxValue, capacity int }{
		{1, 0, 0},
		{5, -3, 0},
		{1, 1, 1},
		{3, 20, 5},
		{7, 5, 3},
		{6, 6, 3},
		{8, 7, 3},
		{1000, 10, 4},
		{4096, 4096, 13},
		{4095, 4096, 13},
		{2731, 4097, 13},
		{12345, 1 << 20, 21},
		{1 << 40, 1<<41 + 3, 42},
		{1<<62 - 1, 1<<63 - 1, 63},
	}
	for _, c := range cases {
		got := Ancestors(c.x, c.maxValue)
		want := ancestorsReference(c.x, c.maxValue)
		if len(got) != len(want) || cap(got) != c.capacity {
			t.Fatalf("Ancestors(%d, %d) = %v (cap %d), want %v (cap %d)", c.x, c.maxValue, got, cap(got), want, c.capacity)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Ancestors(%d, %d) = %v, want %v", c.x, c.maxValue, got, want)
			}
		}
		wantAllocs := 1.0
		if c.maxValue < 1 {
			wantAllocs = 0
		}
		if allocs := testing.AllocsPerRun(10, func() { Ancestors(c.x, c.maxValue) }); allocs != wantAllocs {
			t.Fatalf("Ancestors(%d, %d) allocates %v times, want %v", c.x, c.maxValue, allocs, wantAllocs)
		}
	}
}

func TestAncestorsIncludeSelf(t *testing.T) {
	for x := 1; x <= 200; x++ {
		anc := Ancestors(x, 1000)
		if len(anc) == 0 || anc[0] != x {
			t.Fatalf("Ancestors(%d) does not start with x: %v", x, anc)
		}
	}
}

func TestIsAncestor(t *testing.T) {
	if !IsAncestor(8, 3) {
		t.Fatal("8 should be an ancestor of 3")
	}
	if !IsAncestor(2, 3) {
		t.Fatal("2 should be an ancestor of 3")
	}
	if IsAncestor(6, 3) {
		t.Fatal("6 is not an ancestor of 3")
	}
	if !IsAncestor(5, 5) {
		t.Fatal("x is an ancestor of itself")
	}
	if IsAncestor(3, 8) {
		t.Fatal("a lower-level value cannot be an ancestor")
	}
}

func TestLeastCommonAncestorLevel(t *testing.T) {
	// 3 and 5: ancestors of 3 are 3,2,4,8...; of 5 are 5,6,4,8...; first
	// common ancestor is 4 at level 2.
	if l := leastCommonAncestorLevel(3, 5); l != 2 {
		t.Fatalf("LCA level of 3,5 = %d, want 2", l)
	}
	if l := leastCommonAncestorLevel(7, 7); l != 0 {
		t.Fatalf("LCA level of equal values = %d, want their level", l)
	}
}

func TestLCAIsBetweenForPathIndices(t *testing.T) {
	// The Theorem 2 proof uses that the least common ancestor of two indices
	// lies between them; verify on random pairs.
	check := func(a, b uint16) bool {
		x := 1 + int(a%2000)
		y := 1 + int(b%2000)
		l := leastCommonAncestorLevel(x, y)
		anc := Ancestor(x, l-Level(x))
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		return anc >= lo && anc <= hi
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLevelIndexInRange(t *testing.T) {
	if got := MaxLevelIndexInRange(3, 6); got != 4 {
		t.Fatalf("MaxLevelIndexInRange(3,6) = %d, want 4", got)
	}
	if got := MaxLevelIndexInRange(5, 5); got != 5 {
		t.Fatalf("MaxLevelIndexInRange(5,5) = %d, want 5", got)
	}
	if got := MaxLevelIndexInRange(9, 16); got != 16 {
		t.Fatalf("MaxLevelIndexInRange(9,16) = %d, want 16", got)
	}
}

// The paper's well-definedness argument: the maximum level index in a
// consecutive range is unique.
func TestMaxLevelIndexIsUnique(t *testing.T) {
	check := func(a uint16, span uint8) bool {
		lo := 1 + int(a%3000)
		hi := lo + int(span%64)
		best := MaxLevelIndexInRange(lo, hi)
		count := 0
		for i := lo; i <= hi; i++ {
			if Level(i) == Level(best) {
				count++
			}
		}
		return count == 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromPathDecompositionOnPath(t *testing.T) {
	g := gen.Path(9)
	pd, err := decomp.OfPathGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := FromPathDecomposition(g, pd)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(lab); err != nil {
		t.Fatal(err)
	}
	if lab.B != pd.B() {
		t.Fatalf("labeling B=%d, decomposition has %d bags", lab.B, pd.B())
	}
	// Every node labeled l must belong to bag l (1-based).
	for lbl := 1; lbl <= lab.B; lbl++ {
		bag := pd.Bags[lbl-1]
		for _, v := range lab.Nodes(lbl) {
			found := false
			for _, u := range bag {
				if u == v {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("node %d labeled %d is not in bag %d", v, lbl, lbl)
			}
		}
	}
}

func TestFromPathDecompositionLabelMembership(t *testing.T) {
	rng := xrand.New(3)
	check := func(raw uint16) bool {
		n := 2 + int(raw%80)
		g := gen.RandomTree(n, rng)
		pd, err := decomp.TreeCentroid(g)
		if err != nil {
			return false
		}
		lab, err := FromPathDecomposition(g, pd)
		if err != nil {
			return false
		}
		if validate(lab) != nil {
			return false
		}
		first, last := pd.NodeIntervals(n)
		for v := 0; v < n; v++ {
			lbl := lab.Labels[v]
			// label must be inside the node's bag interval (1-based)
			if lbl < first[v]+1 || lbl > last[v]+1 {
				return false
			}
			// and must have the maximum level in that interval
			if lbl != MaxLevelIndexInRange(first[v]+1, last[v]+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFromPathDecompositionRejectsInvalid(t *testing.T) {
	g := gen.Cycle(5)
	bad := decomp.NewPathDecomposition([][]graph.NodeID{{0, 1}, {1, 2}})
	if _, err := FromPathDecomposition(g, bad); err == nil {
		t.Fatal("invalid decomposition accepted")
	}
}

func TestLabelingOnIntervalGraph(t *testing.T) {
	rng := xrand.New(5)
	g, model := gen.RandomIntervalGraph(120, 3, rng)
	pd := decomp.IntervalCliquePath(model)
	lab, err := FromPathDecomposition(g, pd)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(lab); err != nil {
		t.Fatal(err)
	}
	// All labels must be in [1, B].
	for _, l := range lab.Labels {
		if l < 1 || l > lab.B {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestNodesForUnknownLabel(t *testing.T) {
	g := gen.Path(4)
	pd, _ := decomp.OfPathGraph(g)
	lab, err := FromPathDecomposition(g, pd)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Nodes(0) != nil || lab.Nodes(lab.B+1) != nil {
		t.Fatal("out-of-range labels should return nil")
	}
}

// leastCommonAncestorLevel returns the smallest level l >= max(level(x),
// level(y)) at which x and y share an ancestor.  Any two positive integers
// share ancestors at all sufficiently high levels.
func leastCommonAncestorLevel(x, y int) int {
	for l := max(Level(x), Level(y)); l < 62; l++ {
		if Ancestor(x, l-Level(x)) == Ancestor(y, l-Level(y)) {
			return l
		}
	}
	panic("label: no common ancestor below level 62")
}

// validate checks structural invariants of the labeling: labels lie in
// [1, B] and NodesByLabel is consistent with Labels.
func validate(l *Labeling) error {
	counts := make([]int, l.B+1)
	for v, lbl := range l.Labels {
		if lbl < 1 || lbl > l.B {
			return fmt.Errorf("label: node %d has label %d outside [1,%d]", v, lbl, l.B)
		}
		counts[lbl]++
	}
	for lbl := 1; lbl <= l.B; lbl++ {
		if len(l.NodesByLabel[lbl]) != counts[lbl] {
			return fmt.Errorf("label: NodesByLabel[%d] has %d nodes, Labels says %d",
				lbl, len(l.NodesByLabel[lbl]), counts[lbl])
		}
		for _, v := range l.NodesByLabel[lbl] {
			if l.Labels[v] != lbl {
				return fmt.Errorf("label: node %d listed under label %d but has label %d", v, lbl, l.Labels[v])
			}
		}
	}
	return nil
}
