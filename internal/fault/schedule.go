package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse builds an Injector from a compact schedule string, the grammar
// `navsim serve -faults` and `navsim chaos -faults` accept:
//
//	schedule := fault (";" fault)*
//	fault    := kind [":" key "=" val ("," key "=" val)*]
//	kind     := latency | storm | stall | panic | mem
//	key      := shard | p | delay | start | dur
//
// Durations use Go syntax ("150ms", "3s").  Defaults: shard -1 for panic
// (every shard) and 0 for stall (stalling "every shard" is a dead server,
// not a drill), p=1, start=0, dur=0 (never closes).
//
// Snapshot damage is not a schedule kind: it happens once, before the
// load, so "corrupt" fails with a pointer to `navsim chaos -corrupt`,
// which damages a section and then loads the file tolerantly.
//
// Example:
//
//	stall:shard=0,delay=150ms;storm:p=0.1,delay=3s,start=1s,dur=5s
//
// stalls every task on shard 0 for 150ms from activation onwards, and
// delays 10% of requests by 3s during seconds 1..6.
//
// An empty spec returns a nil Injector — the "disabled" value.
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var faults []Fault
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, err
		}
		faults = append(faults, f)
	}
	if len(faults) == 0 {
		return nil, nil
	}
	return New(seed, faults...), nil
}

func parseFault(part string) (Fault, error) {
	kindStr, rest, _ := strings.Cut(part, ":")
	f := Fault{Kind: Kind(strings.TrimSpace(kindStr)), Shard: -1, P: 1}
	if f.Kind == "corrupt" {
		return Fault{}, fmt.Errorf("fault: %q: corrupt is not a schedule kind; damage a snapshot section with navsim chaos -corrupt <section>", part)
	}
	if f.Kind == KindStall {
		// A stall drill targets one wedged worker by default; stalling
		// every shard is expressible with an explicit shard=-1.
		f.Shard = 0
	}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return Fault{}, fmt.Errorf("fault: %q: option %q is not key=value", part, kv)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "shard":
				f.Shard, err = strconv.Atoi(val)
			case "p":
				f.P, err = strconv.ParseFloat(val, 64)
			case "delay":
				f.Delay, err = time.ParseDuration(val)
			case "start":
				f.Start, err = time.ParseDuration(val)
			case "dur":
				f.Duration, err = time.ParseDuration(val)
			default:
				return Fault{}, fmt.Errorf("fault: %q: unknown option %q", part, key)
			}
			if err != nil {
				return Fault{}, fmt.Errorf("fault: %q: option %q: %v", part, key, err)
			}
		}
	}
	if err := f.validate(); err != nil {
		return Fault{}, fmt.Errorf("%w (in %q)", err, part)
	}
	return f, nil
}
