package navaug

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptTestOnly lists the functions and methods of cmd/ and internal/ that
// no binary links, and why each stays. Keys are "dir.Name" or
// "dir.Type.Name".
var keptTestOnly = map[string]string{
	"internal/graph.Read":                         "WriteTo's round-trip reference; CI fuzzes it (FuzzGraphRead)",
	"internal/decomp.ExactPathwidth":              "exact reference for the heuristic widths; advertised in the README",
	"internal/decomp.ExactPathwidthDecomposition": "exact reference for the heuristic decompositions; advertised in the README",
	"internal/label.IsAncestor":                   "the paper's ancestor relation, the reference the labeling tests check against",
	"internal/label.MaxLevelIndexInRange":         "the paper's level-maximum definition, the reference for the labeling tests",
	"internal/label.Labeling.Nodes":               "the paper's definition of a labeling's node set, used as a test reference",
	"internal/decomp.PathDecomposition.Length":    "the paper's definition of a decomposition's length, used as a test reference",
	"internal/serve.Server.Draining":              "the read side of BeginDrain",
}

// TestEveryFuncIsLinked fails when a function or method declared in a
// non-test file under cmd/ or internal/ is in none of the programs the
// repository ships: cmd/navsim, the examples and bench/. The linker drops
// what no program reaches, by type, so a dead method is found even when a
// live one shares its name. The programs are built with inlining off in
// navaug's packages, so that no function is linked only as inlined copies.
// internal/dist/disttest is test-support code and is exempt, init is live,
// and so are the names in keptTestOnly.
func TestEveryFuncIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program")
	}
	out := t.TempDir()
	build := func(dir string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=navaug/...=-l", "-o", out + string(filepath.Separator)}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, msg)
		}
	}
	build(".", "./cmd/navsim", "./examples/...")
	build("bench", ".")

	// mains maps each binary to the directory of its main package.
	mains := map[string]string{"navsim": "cmd/navsim", "bench": "bench"}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range examples {
		mains[filepath.Base(dir)] = filepath.ToSlash(dir)
	}
	linked := map[string]bool{}
	for bin, dir := range mains {
		nm, err := exec.Command("go", "tool", "nm", filepath.Join(out, bin)).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		addLinked(linked, dir, string(nm))
	}

	decls, err := declaredFuncs()
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := unlinked(decls, linked, keptTestOnly)
	for _, k := range dead {
		t.Errorf("%s is in no binary: delete it, move it into a _test.go file, or add it to keptTestOnly with the reason", k)
	}
	for _, k := range stale {
		t.Errorf("keptTestOnly names %s, which is not declared or is linked: drop it from the list", k)
	}
}

// addLinked adds to linked the key of every text symbol in nm, the output
// of go tool nm for the binary whose main package is in mainDir.
func addLinked(linked map[string]bool, mainDir, nm string) {
	for _, line := range strings.Split(nm, "\n") {
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			if key, ok := symbolKey(mainDir, f[2]); ok {
				linked[key] = true
			}
		}
	}
}

// symbolKey maps a text symbol that go tool nm printed for the binary
// whose main package is in mainDir to the key of the declaration it
// compiles: "dir.Name" or "dir.Type.Name", whatever the receiver's
// pointerness and with generic instantiations stripped. ok is false for a
// symbol from outside the module.
func symbolKey(mainDir, sym string) (key string, ok bool) {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = b.String()
	var dir, rest string
	if r, ok := strings.CutPrefix(sym, "main."); ok {
		dir, rest = mainDir, r
	} else if r, ok := strings.CutPrefix(sym, "navaug/"); ok {
		slash := strings.LastIndexByte(r, '/') + 1
		dot := strings.IndexByte(r[slash:], '.')
		if dot < 0 {
			return "", false
		}
		dir, rest = r[:slash+dot], r[slash+dot+1:]
	} else {
		return "", false
	}
	if r, ok := strings.CutPrefix(rest, "(*"); ok {
		rest = strings.Replace(r, ")", "", 1)
	}
	return dir + "." + rest, true
}

// declaredFuncs returns the key of every function and method declared in
// a non-test file under cmd/ or internal/, except init and those of
// internal/dist/disttest.
func declaredFuncs() ([]string, error) {
	var keys []string
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir // the go tool ignores it too
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if dir == "internal/dist/disttest" {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			keys = append(keys, fileFuncs(dir, f)...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// fileFuncs returns the key of every function and method declared in f,
// a file of the package in dir, except init.
func fileFuncs(dir string, f *ast.File) []string {
	var keys []string
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && !(fd.Recv == nil && fd.Name.Name == "init") {
			keys = append(keys, dir+"."+funcKey(fd))
		}
	}
	return keys
}

// unlinked returns, sorted, the declarations that are neither linked nor
// kept, and the keep-list entries that are not declared or are linked.
func unlinked(decls []string, linked map[string]bool, keep map[string]string) (dead, stale []string) {
	declared := map[string]bool{}
	for _, k := range decls {
		declared[k] = true
		if !linked[k] && keep[k] == "" {
			dead = append(dead, k)
		}
	}
	for k := range keep {
		if !declared[k] || linked[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// funcKey is "Name" for a function and "Type.Name" for a method.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// TestLinkCheckMapping runs the link check's bookkeeping on made-up
// declarations and nm output: how receivers, generic instantiations, init
// and main packages map to declarations, and when a keep-list entry is
// stale.
func TestLinkCheckMapping(t *testing.T) {
	for _, tc := range []struct {
		name, dir, src string
		nm             map[string]string // main dir → go tool nm output
		keep           map[string]string
		dead, stale    []string
	}{
		{
			name: "pointer and value receivers",
			dir:  "internal/p",
			src:  "package p\ntype T int\nfunc (T) Val() {}\nfunc (*T) Ptr() {}\nfunc (*T) Dead() {}\nfunc (T) Dead2() {}",
			nm: map[string]string{"cmd/navsim": "  4a1000 T navaug/internal/p.T.Val\n" +
				"  4a1020 T navaug/internal/p.(*T).Ptr\n  4a1040 D navaug/internal/p.(*T).Dead"},
			dead: []string{"internal/p.T.Dead", "internal/p.T.Dead2"},
		},
		{
			name: "wrapper of a value method",
			dir:  "internal/p",
			src:  "package p\ntype T int\nfunc (T) Val() {}",
			nm:   map[string]string{"bench": "  4a1000 T navaug/internal/p.(*T).Val"},
		},
		{
			name: "generic function and method",
			dir:  "internal/p/q",
			src:  "package q\ntype S[K comparable] struct{}\nfunc Map[K, V any]() {}\nfunc (*S[K]) Add() {}\nfunc Unused[K any]() {}",
			nm: map[string]string{"examples/quickstart": "  4a1000 T navaug/internal/p/q.Map[go.shape.int,go.shape.struct { X int }]\n" +
				"  4a1020 T navaug/internal/p/q.(*S[go.shape.string]).Add\n" +
				"  4a1040 T sync/atomic.(*Pointer[go.shape.struct { navaug/internal/p/q.x int }]).Load"},
			dead: []string{"internal/p/q.Unused"},
		},
		{
			name: "init is live",
			dir:  "internal/p",
			src:  "package p\nfunc init() {}\nfunc init() {}",
			nm:   map[string]string{"cmd/navsim": ""},
		},
		{
			name: "main only in its own binary",
			dir:  "cmd/navsim",
			src:  "package main\nfunc main() {}\nfunc run() {}",
			nm: map[string]string{"cmd/navsim": "  4a1000 T main.main",
				"examples/quickstart": "  4a1000 T main.main\n  4a1020 T main.run"},
			dead: []string{"cmd/navsim.run"},
		},
		{
			name:  "stale keep-list entries",
			dir:   "internal/p",
			src:   "package p\nfunc Kept() {}\nfunc Live() {}",
			nm:    map[string]string{"bench": "  4a1000 T navaug/internal/p.Live"},
			keep:  map[string]string{"internal/p.Kept": "a test reference", "internal/p.Live": "now linked", "internal/p.Gone": "deleted"},
			stale: []string{"internal/p.Gone", "internal/p.Live"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(token.NewFileSet(), "x.go", tc.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			linked := map[string]bool{}
			for dir, nm := range tc.nm {
				addLinked(linked, dir, nm)
			}
			dead, stale := unlinked(fileFuncs(tc.dir, f), linked, tc.keep)
			if !slices.Equal(dead, tc.dead) || !slices.Equal(stale, tc.stale) {
				t.Fatalf("dead %q, stale %q; want %q, %q", dead, stale, tc.dead, tc.stale)
			}
		})
	}
}
