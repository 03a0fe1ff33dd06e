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

// TestGoldenReportHashes checks the SHA-256 of the JSON report of every
// experiment in the golden map the paper-suite benchmark gates on (the map
// in bench/suite.go, read from the file so there is one copy), at scale
// 0.05 and the default seed, run the way the benchmark runs them: one
// experiment per report.  It makes `go test ./...` catch byte drift in any
// of them without running the benchmark.  The hashes are pinned on amd64
// only.
func TestGoldenReportHashes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report hashes are pinned on amd64, not %s", runtime.GOARCH)
	}
	suite, err := os.ReadFile("bench/suite.go")
	if err != nil {
		t.Fatal(err)
	}
	golden := regexp.MustCompile(`"(E[0-9]+)@0\.05":\s*"([0-9a-f]{64})"`).FindAllSubmatch(suite, -1)
	if len(golden) == 0 {
		t.Fatal("no golden hashes at scale 0.05 in bench/suite.go")
	}
	cfg := scenario.Config{Seed: scenario.DefaultConfig().Seed, Scale: 0.05, Workers: 2, Parallel: 2}
	for _, m := range golden {
		id := string(m[1])
		rep, err := core.RunSuite([]string{id}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != string(m[2]) {
			t.Errorf("%s@0.05 report hash %s, golden %s", id, got, m[2])
		}
	}
}
