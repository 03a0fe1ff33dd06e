package navaug

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"regexp"
	"runtime"
	"testing"

	"navaug/internal/core"
	"navaug/internal/scenario"
)

// TestGoldenReportHashes checks the SHA-256 of the E7 and E13 JSON reports
// at scale 0.05 and the default seed against the golden hashes the
// paper-suite benchmark gates on (the golden map in bench/suite.go, read
// from the file so there is one copy), run the way the benchmark runs them.
// It makes `go test ./...` catch byte drift in the ball rows (E7) and the
// churn pipeline (E13) without running the benchmark.  The hashes are
// pinned on amd64 only.
func TestGoldenReportHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report hashes are pinned on amd64, not %s", runtime.GOARCH)
	}
	suite, err := os.ReadFile("bench/suite.go")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.Config{Seed: scenario.DefaultConfig().Seed, Scale: 0.05, Workers: 2, Parallel: 2}
	for _, id := range []string{"E7", "E13"} {
		m := regexp.MustCompile(`"` + id + `@0\.05":\s*"([0-9a-f]{64})"`).FindSubmatch(suite)
		if m == nil {
			t.Fatalf("no golden hash for %s@0.05 in bench/suite.go", id)
		}
		rep, err := core.RunSuite([]string{id}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != string(m[1]) {
			t.Errorf("%s@0.05 report hash %s, golden %s", id, got, m[1])
		}
	}
}
