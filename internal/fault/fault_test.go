package fault

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var i *Injector
	if i.RequestDelay() != 0 || i.StallDelay(0) != 0 || i.InjectPanic(0) || i.MemoryPressure() {
		t.Fatal("nil injector injected a fault")
	}
	if err := i.CheckShards(1); err != nil {
		t.Fatalf("nil injector rejected a pool: %v", err)
	}
	i.Activate() // must not panic
	i.Deactivate()
}

func TestDormantUntilActivate(t *testing.T) {
	i := mustParse(t, "stall:shard=0,delay=10ms;mem;panic:p=1", 1)
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
	i := mustParse(t, "stall:shard=2,delay=5ms;panic:shard=1,p=1", 1)
	i.Activate()
	if i.StallDelay(0) != 0 || i.StallDelay(2) != 5*time.Millisecond {
		t.Fatal("stall did not target shard 2")
	}
	if i.InjectPanic(0) || !i.InjectPanic(1) {
		t.Fatal("panic did not target shard 1")
	}
	all := mustParse(t, "panic:shard=-1,p=1", 1)
	all.Activate()
	if !all.InjectPanic(0) || !all.InjectPanic(7) {
		t.Fatal("shard=-1 panic did not hit every shard")
	}
}

func TestWindows(t *testing.T) {
	// A window starting 1h out never opens during the test; a 0-start
	// window with dur=0 never closes.
	i := mustParse(t, "mem:start=1h;stall:shard=0,delay=1ms", 1)
	i.Activate()
	if i.MemoryPressure() {
		t.Fatal("future window already open")
	}
	if i.StallDelay(0) != time.Millisecond {
		t.Fatal("open-ended window not open")
	}
	// An already-elapsed window: rebase activation into the past.
	past := mustParse(t, "mem:dur=1ms", 1)
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
		i := mustParse(t, "panic:p=0.5", seed)
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
	i := mustParse(t, "latency:delay=2ms;storm:delay=3ms", 1)
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
				t.Fatalf("Parse(%q) = %q, want an error", tc.spec, formatSchedule(inj))
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
	i := mustParse(t, "stall:delay=150ms;storm:p=0.1,delay=3s,start=1s,dur=5s;mem;panic", 1)
	want := []Fault{
		{Kind: KindStall, Shard: 0, P: 1, Delay: 150 * time.Millisecond},
		{Kind: KindStorm, Shard: -1, P: 0.1, Delay: 3 * time.Second, Start: time.Second, Duration: 5 * time.Second},
		{Kind: KindMem, Shard: -1, P: 1},
		{Kind: KindPanic, Shard: -1, P: 1},
	}
	if !reflect.DeepEqual(i.faults, want) {
		t.Fatalf("parsed %+v, want %+v", i.faults, want)
	}
	if j := mustParse(t, formatSchedule(i), 1); !reflect.DeepEqual(j.faults, want) {
		t.Fatalf("round trip through %q: %+v, want %+v", formatSchedule(i), j.faults, want)
	}
}

// TestShardRange pins that a stall or panic either can fire or fails
// loud: Parse rejects shards below -1, and CheckShards rejects a shard the
// pool does not have.
func TestShardRange(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		workers int
		want    string // substring of the error; empty for none
	}{
		{"stall:shard=-5,delay=1ms", 2, "shard -5"},
		{"panic:shard=-2", 2, "shard -2"},
		{"latency:shard=-3,delay=1ms", 2, "shard -3"},
		{"stall:shard=-1,delay=1ms", 2, ""},
		{"panic:shard=-1", 1, ""},
		{"stall:shard=1,delay=1ms", 2, ""},
		{"stall:shard=2,delay=1ms", 2, "names shard 2"},
		{"panic:shard=3", 2, "names shard 3"},
		{"mem;stall:delay=1ms", 1, ""},
		{"stall:delay=1ms;panic:shard=7,p=0.5", 4, "names shard 7"},
		{"latency:shard=9,delay=1ms;storm:shard=9,delay=1s;mem:shard=9", 2, ""},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			inj, err := Parse(tc.spec, 1)
			if err == nil {
				err = inj.CheckShards(tc.workers)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error mentioning %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// FuzzParse: every schedule Parse accepts formats back, through
// formatSchedule, into a spec that parses to the same faults.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"stall:shard=0,delay=10ms;mem;panic:p=1",
		"stall:shard=2,delay=5ms;panic:shard=1,p=1",
		"panic:shard=-1,p=1",
		"mem:start=1h;stall:shard=0,delay=1ms",
		"mem:dur=1ms",
		"panic:p=0.5",
		"latency:delay=2ms;storm:delay=3ms",
		"stall:delay=150ms;storm:p=0.1,delay=3s,start=1s,dur=5s;mem",
		"stall:shard=-1,delay=1ms",
		"panic:p=0",
		" ; stall : delay = 1ms ;",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := Parse(spec, 1)
		if err != nil {
			return
		}
		text := formatSchedule(inj)
		again, err := Parse(text, 1)
		if err != nil {
			t.Fatalf("%q formats as %q, which does not parse: %v", spec, text, err)
		}
		if inj == nil || again == nil {
			if inj != again {
				t.Fatalf("%q formats as %q: injector %v, then %v", spec, text, inj, again)
			}
			return
		}
		if !reflect.DeepEqual(inj.faults, again.faults) {
			t.Fatalf("%q formats as %q: faults %+v, then %+v", spec, text, inj.faults, again.faults)
		}
	})
}

// formatSchedule renders a schedule in the Parse grammar.  Every option is
// written out, so no default can stand in for a value: shard=-1 on a
// stall and p=0 both survive the round trip.
func formatSchedule(i *Injector) string {
	if i == nil {
		return ""
	}
	parts := make([]string, len(i.faults))
	for k, f := range i.faults {
		parts[k] = fmt.Sprintf("%s:shard=%d,p=%s,delay=%s,start=%s,dur=%s", f.Kind, f.Shard,
			strconv.FormatFloat(f.P, 'g', -1, 64), f.Delay, f.Start, f.Duration)
	}
	return strings.Join(parts, ";")
}

// mustParse parses a schedule the test knows to be valid.
func mustParse(t *testing.T, spec string, seed uint64) *Injector {
	t.Helper()
	i, err := Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return i
}
