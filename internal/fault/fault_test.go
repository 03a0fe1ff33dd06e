package fault

import (
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var i *Injector
	if i.RequestDelay() != 0 || i.StallDelay(0) != 0 || i.InjectPanic(0) || i.MemoryPressure() {
		t.Fatal("nil injector injected a fault")
	}
	if i.String() != "" {
		t.Fatal("nil injector reports state")
	}
	i.Activate() // must not panic
	i.Deactivate()
}

func TestDormantUntilActivate(t *testing.T) {
	i := MustParse("stall:shard=0,delay=10ms;mem;panic:p=1", 1)
	if i.StallDelay(0) != 0 || i.MemoryPressure() || i.InjectPanic(0) {
		t.Fatal("dormant injector fired before Activate")
	}
	i.Activate()
	if i.StallDelay(0) != 10*time.Millisecond || !i.MemoryPressure() || !i.InjectPanic(0) {
		t.Fatal("activated injector did not fire")
	}
	i.Deactivate()
	if i.StallDelay(0) != 0 || i.MemoryPressure() {
		t.Fatal("deactivated injector still fires")
	}
}

func TestShardTargeting(t *testing.T) {
	i := MustParse("stall:shard=2,delay=5ms;panic:shard=1,p=1", 1)
	i.Activate()
	if i.StallDelay(0) != 0 || i.StallDelay(2) != 5*time.Millisecond {
		t.Fatal("stall did not target shard 2")
	}
	if i.InjectPanic(0) || !i.InjectPanic(1) {
		t.Fatal("panic did not target shard 1")
	}
	all := MustParse("panic:shard=-1,p=1", 1)
	all.Activate()
	if !all.InjectPanic(0) || !all.InjectPanic(7) {
		t.Fatal("shard=-1 panic did not hit every shard")
	}
}

func TestWindows(t *testing.T) {
	// A window starting 1h out never opens during the test; a 0-start
	// window with dur=0 never closes.
	i := MustParse("mem:start=1h;stall:shard=0,delay=1ms", 1)
	i.Activate()
	if i.MemoryPressure() {
		t.Fatal("future window already open")
	}
	if i.StallDelay(0) != time.Millisecond {
		t.Fatal("open-ended window not open")
	}
	// An already-elapsed window: rebase activation into the past.
	past := MustParse("mem:dur=1ms", 1)
	past.Activate()
	past.activatedAt.Store(time.Now().Add(-time.Second).UnixNano())
	if past.MemoryPressure() {
		t.Fatal("expired window still open")
	}
}

// TestDrawStreamDeterministic pins that the probability stream is a pure
// function of the seed: two injectors with equal seeds agree decision for
// decision, and a different seed disagrees somewhere.
func TestDrawStreamDeterministic(t *testing.T) {
	seq := func(seed uint64) []bool {
		i := MustParse("panic:p=0.5", seed)
		i.Activate()
		out := make([]bool, 256)
		for k := range out {
			out[k] = i.InjectPanic(0)
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	hits, differs := 0, false
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed diverged at draw %d", k)
		}
		if a[k] != c[k] {
			differs = true
		}
		if a[k] {
			hits++
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical streams")
	}
	// p=0.5 over 256 draws: expect roughly half, loose bounds.
	if hits < 64 || hits > 192 {
		t.Fatalf("p=0.5 stream hit %d/256 draws", hits)
	}
}

func TestRequestDelaySumsOpenWindows(t *testing.T) {
	i := MustParse("latency:delay=2ms;storm:delay=3ms", 1)
	i.Activate()
	if d := i.RequestDelay(); d != 5*time.Millisecond {
		t.Fatalf("RequestDelay = %v, want 5ms", d)
	}
}

// TestParseRejectsUnknownKinds pins that a schedule entry either injects
// something or fails the parse: an unknown kind and the snapshot-damage
// kind "corrupt", which no probe consults, are errors that name what to
// use instead, never entries that silently do nothing.
func TestParseRejectsUnknownKinds(t *testing.T) {
	for _, tc := range []struct {
		spec, want string
	}{
		{"bogus", `unknown kind "bogus"`},
		{"stall:delay=1ms;bogus:p=0.5", `unknown kind "bogus"`},
		{"corrupt", "navsim chaos -corrupt"},
		{"corrupt:section=twohop", "navsim chaos -corrupt"},
		{"stall:delay=1ms;corrupt:section=scheme", "navsim chaos -corrupt"},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			inj, err := Parse(tc.spec, 1)
			if err == nil {
				t.Fatalf("Parse(%q) = %q, want an error", tc.spec, inj)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) error %q does not mention %q", tc.spec, err, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"stall",                  // no delay
		"latency:delay=0s",       // non-positive delay
		"panic:p=1.5",            // p out of range
		"panic:p=nope",           // unparseable
		"stall:delay=5ms,foo=1",  // unknown key
		"stall:delay=5ms,shard",  // not key=value
		"mem:start=-1s",          // negative window
		"storm:delay=1s,dur=-1s", // negative duration
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted a malformed schedule", spec)
		}
	}
}

func TestParseEmptyAndRoundTrip(t *testing.T) {
	if inj, err := Parse("  ", 1); err != nil || inj != nil {
		t.Fatalf("empty spec: inj=%v err=%v, want nil,nil", inj, err)
	}
	spec := "stall:delay=150ms;storm:p=0.1,delay=3s,start=1s,dur=5s;mem"
	i := MustParse(spec, 1)
	// String() must re-parse to an equivalent schedule.
	j := MustParse(i.String(), 1)
	if i.String() != j.String() {
		t.Fatalf("round trip: %q -> %q", i.String(), j.String())
	}
	if !strings.Contains(i.String(), "shard=0") {
		t.Fatalf("stall default shard not rendered: %q", i.String())
	}
}
