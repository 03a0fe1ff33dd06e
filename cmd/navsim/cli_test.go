package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"navaug/internal/serve"
	"navaug/internal/snapshot"
)

// runCommand runs `navsim <args>` in-process and returns what the command
// wrote to stdout and stderr.  A panic fails the test: every bad input must
// come back as an error.
func runCommand(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	capture := func(name string, dst **os.File) (restore func() string) {
		f, ferr := os.Create(filepath.Join(dir, name))
		if ferr != nil {
			t.Fatal(ferr)
		}
		saved := *dst
		*dst = f
		return func() string {
			*dst = saved
			f.Close()
			b, rerr := os.ReadFile(f.Name())
			if rerr != nil {
				t.Fatal(rerr)
			}
			return string(b)
		}
	}
	restoreOut := capture("stdout", &os.Stdout)
	restoreErr := capture("stderr", &os.Stderr)
	defer func() {
		stdout, stderr = restoreOut(), restoreErr()
		if r := recover(); r != nil {
			t.Fatalf("navsim %s panicked: %v", strings.Join(args, " "), r)
		}
	}()
	c := commandNamed(t, args[0])
	return "", "", c.run(c, args[1:])
}

// TestCommandsMatchGolden pins graph, trace and estimate byte for byte to
// testdata captured before graph and trace replaced the standalone
// graphgen and routetrace binaries.
func TestCommandsMatchGolden(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		golden string
		stderr string
	}{
		{"graph grid edge list", []string{"graph", "-family", "grid", "-n", "64"}, "graph_grid.golden",
			"generated grid-8x8{n=64 m=112}: max degree 4, avg degree 3.50, diameter >= 14\n"},
		{"graph grid dot", []string{"graph", "-family", "grid", "-n", "64", "-dot"}, "graph_grid_dot.golden",
			"generated grid-8x8{n=64 m=112}: max degree 4, avg degree 3.50, diameter >= 14\n"},
		{"graph ratree edge list", []string{"graph", "-family", "ratree", "-n", "64", "-seed", "3"}, "graph_ratree.golden",
			"generated ratree-64{n=64 m=63}: max degree 6, avg degree 1.97, diameter >= 14\n"},
		{"graph ratree dot", []string{"graph", "-family", "ratree", "-n", "64", "-seed", "3", "-dot"}, "graph_ratree_dot.golden",
			"generated ratree-64{n=64 m=63}: max degree 6, avg degree 1.97, diameter >= 14\n"},
		{"graph families", []string{"graph", "-families"}, "graph_families.golden", ""},
		{"trace grid ball", []string{"trace", "-family", "grid", "-n", "256", "-scheme", "ball", "-s", "0", "-t", "255", "-seed", "7"},
			"trace_grid_ball.golden", ""},
		{"trace grid ball lookahead", []string{"trace", "-family", "grid", "-n", "256", "-scheme", "ball", "-s", "0", "-t", "255", "-seed", "7", "-lookahead"},
			"trace_grid_ball_lookahead.golden", ""},
		{"trace ratree theorem2 auto endpoints", []string{"trace", "-family", "ratree", "-n", "512", "-scheme", "theorem2"},
			"trace_ratree_theorem2.golden", ""},
		{"estimate grid ball", []string{"estimate", "-family", "grid", "-n", "1024", "-scheme", "ball", "-pairs", "6", "-trials", "3"},
			"estimate_grid_ball.golden", ""},
		{"estimate grid ball adaptive", []string{"estimate", "-family", "grid", "-n", "1024", "-scheme", "ball", "-pairs", "4", "-trials", "2", "-precision", "0.2"},
			"estimate_grid_ball_adaptive.golden", ""},
		{"estimate grid ball one pair", []string{"estimate", "-family", "grid", "-n", "256", "-scheme", "ball", "-pairs", "1", "-trials", "200"},
			"estimate_grid_ball_one_pair.golden", ""},
		{"estimate ratree theorem2", []string{"estimate", "-family", "ratree", "-n", "1024", "-scheme", "theorem2", "-pairs", "4", "-trials", "2"},
			"estimate_ratree_theorem2.golden", ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := runCommand(t, tc.args...)
			if err != nil {
				t.Fatalf("navsim %s: %v", strings.Join(tc.args, " "), err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from testdata/%s:\n got: %q\nwant: %q", tc.golden, stdout, want)
			}
			if stderr != tc.stderr {
				t.Errorf("stderr = %q, want %q", stderr, tc.stderr)
			}
		})
	}
}

// TestGraphWritesFile: -o writes the same bytes the command prints to
// stdout without it.
func TestGraphWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.graph")
	stdout, _, err := runCommand(t, "graph", "-family", "grid", "-n", "64", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Fatalf("graph -o also wrote to stdout: %q", stdout)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "graph_grid.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("graph -o wrote %q, want %q", got, want)
	}
}

// TestSnapshotTwoHopAliases: -oracle twohop and its synonym twohop-packed
// write byte-identical snapshots, and the server navsim serve runs on
// either reports the oracle as "twohop".
func TestSnapshotTwoHopAliases(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	for _, oracle := range []string{"twohop", "twohop-packed"} {
		path := filepath.Join(dir, oracle+".navsnap")
		stdout, _, err := runCommand(t, "snapshot", "-family", "powerlaw", "-n", "512", "-seed", "1",
			"-scheme", "uniform", "-oracle", oracle, "-o", path, "-quiet")
		if err != nil {
			t.Fatalf("snapshot -oracle %s: %v", oracle, err)
		}
		if !strings.Contains(stdout, ", oracle twohop\n") {
			t.Errorf("snapshot -oracle %s: stdout %q does not name oracle twohop", oracle, stdout)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, b)

		snap, err := snapshot.ReadFileTolerant(path)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(snap, serve.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
		srv.Close()
		var health struct {
			Oracle string `json:"oracle"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
			t.Fatalf("healthz: %v: %s", err, rec.Body)
		}
		if health.Oracle != "twohop" {
			t.Errorf("serve on a -oracle %s snapshot reports oracle %q, want twohop", oracle, health.Oracle)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("-oracle twohop and -oracle twohop-packed wrote different snapshots")
	}
}

// TestCommandErrors: bad names and endpoints are errors that name the
// offending input, never a panic and never silently ignored.
func TestCommandErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"graph unknown family", []string{"graph", "-family", "bogus"}, `unknown graph family "bogus"`},
		{"trace unknown family", []string{"trace", "-family", "bogus"}, `unknown graph family "bogus"`},
		{"trace unknown scheme", []string{"trace", "-scheme", "bogus"}, `unknown scheme "bogus"`},
		{"estimate unknown family", []string{"estimate", "-family", "bogus"}, `unknown graph family "bogus"`},
		{"estimate unknown scheme", []string{"estimate", "-scheme", "bogus"}, `unknown scheme "bogus"`},
		{"trace source out of range", []string{"trace", "-family", "grid", "-n", "256", "-s", "5000", "-t", "3"},
			"node 5000 out of range: the graph has n=256 nodes"},
		{"trace target out of range", []string{"trace", "-family", "grid", "-n", "256", "-s", "0", "-t", "256"},
			"node 256 out of range: the graph has n=256 nodes"},
		{"trace negative target only", []string{"trace", "-family", "grid", "-n", "256", "-s", "3", "-t", "-1"},
			"give both -s and -t, or neither"},
		{"trace negative source only", []string{"trace", "-family", "grid", "-n", "256", "-s", "-1", "-t", "3"},
			"give both -s and -t, or neither"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			stdout, _, err := runCommand(t, tc.args...)
			if err == nil {
				t.Fatalf("navsim %s succeeded, want an error containing %q", strings.Join(tc.args, " "), tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if stdout != "" {
				t.Fatalf("failed command wrote to stdout: %q", stdout)
			}
		})
	}
}

// TestFlagErrorsReturn: every command hands an unknown or malformed flag
// and -h back to main as an error instead of exiting, after printing the
// flag package's message and the command's usage.
func TestFlagErrorsReturn(t *testing.T) {
	for _, c := range commands {
		tests := []struct {
			name, arg, stderr string
		}{
			{"unknown flag", "-bogus", "flag provided but not defined: -bogus\n"},
			{"malformed flag", "---seed", "bad flag syntax: ---seed\n"},
			{"help", "-h", ""},
		}
		for _, tc := range tests {
			t.Run(c.name+" "+tc.name, func(t *testing.T) {
				stdout, stderr, err := runCommand(t, c.name, tc.arg)
				if tc.arg == "-h" {
					if !errors.Is(err, flag.ErrHelp) {
						t.Fatalf("navsim %s -h returned %v, want flag.ErrHelp", c.name, err)
					}
				} else if !errors.As(err, new(flagError)) {
					t.Fatalf("navsim %s %s returned %v, want a flagError", c.name, tc.arg, err)
				}
				if !strings.HasPrefix(stderr, tc.stderr+"usage: navsim "+c.name+" ") || !strings.Contains(stderr, "\nflags:\n") {
					t.Errorf("stderr %q does not start with %q and the usage", stderr, tc.stderr)
				}
				if stdout != "" {
					t.Errorf("stdout %q, want nothing", stdout)
				}
			})
		}
	}
}
