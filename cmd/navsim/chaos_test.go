package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

func commandNamed(t *testing.T, name string) *command {
	t.Helper()
	for _, c := range commands {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no navsim command %q", name)
	return nil
}

// TestChaosOneShardPanicRecord runs `navsim chaos` end to end with one
// shard panicking on every task: the run must recover, count the panics,
// serve no approximate answer, and print a record without a repairs key.
func TestChaosOneShardPanicRecord(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "chaos.navsnap")
	if _, _, err := runCommand(t, "snapshot",
		"-family", "ratree", "-n", "256", "-scheme", "ball,uniform", "-draws", "2",
		"-oracle", "twohop", "-o", snapPath, "-quiet",
	); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	stdout, _, err := runCommand(t, "chaos",
		"-snapshot", snapPath, "-faults", "panic:shard=0,p=1,dur=400ms",
		"-duration", "500ms", "-conns", "4",
	)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}

	var got struct {
		Recovered bool  `json:"recovered"`
		Panics    int64 `json:"panics"`
		Approx    int64 `json:"approx_answers"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("stdout is not one JSON record: %v: %s", err, stdout)
	}
	if err := json.Unmarshal([]byte(stdout), &keys); err != nil {
		t.Fatal(err)
	}
	if !got.Recovered || got.Panics == 0 || got.Approx != 0 {
		t.Fatalf("record recovered=%v panics=%d approx_answers=%d, want true, >0, 0: %s",
			got.Recovered, got.Panics, got.Approx, stdout)
	}
	if _, ok := keys["repairs"]; ok {
		t.Fatalf("record still carries a repairs key: %s", stdout)
	}
}
