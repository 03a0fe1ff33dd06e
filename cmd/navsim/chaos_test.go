package main

import (
	"encoding/json"
	"os"
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
// serve no approximate answer, and append a record without a repairs key.
func TestChaosOneShardPanicRecord(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "chaos.navsnap")
	outPath := filepath.Join(dir, "chaos-bench.json")
	if err := runSnapshot(commandNamed(t, "snapshot"), []string{
		"-family", "ratree", "-n", "256", "-scheme", "ball,uniform", "-draws", "2",
		"-oracle", "twohop", "-o", snapPath, "-quiet",
	}); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := runChaos(commandNamed(t, "chaos"), []string{
		"-snapshot", snapPath, "-faults", "panic:shard=0,p=1,dur=400ms",
		"-duration", "500ms", "-conns", "4", "-out", outPath,
	}); err != nil {
		t.Fatalf("chaos: %v", err)
	}

	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Chaos []json.RawMessage `json:"chaos"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("bench file: %v", err)
	}
	if len(doc.Chaos) != 1 {
		t.Fatalf("want 1 chaos record, got %d: %s", len(doc.Chaos), b)
	}
	raw := doc.Chaos[0]
	var got struct {
		Recovered bool  `json:"recovered"`
		Panics    int64 `json:"panics"`
		Approx    int64 `json:"approx_answers"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if !got.Recovered || got.Panics == 0 || got.Approx != 0 {
		t.Fatalf("record recovered=%v panics=%d approx_answers=%d, want true, >0, 0: %s",
			got.Recovered, got.Panics, got.Approx, raw)
	}
	if _, ok := keys["repairs"]; ok {
		t.Fatalf("record still carries a repairs key: %s", raw)
	}
}
