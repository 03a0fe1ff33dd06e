package navaug

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptTestOnly lists the exported functions and methods of cmd/ and
// internal/ that only their own package's tests call, and why each stays.
// Keys are "dir.Name" or "dir.Type.Name".
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

// interfaceMethods are method names that satisfy standard-library
// interfaces, so the standard library calls them without naming them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "MarshalJSON": true,
}

// exportDecl is one exported function or method of cmd/ or internal/.
type exportDecl struct {
	dir, key, name string
}

// exportRef is one use of a name: where it is and which exported function
// or method (key, empty if none) encloses it.
type exportRef struct {
	dir, within string
	test        bool
}

// TestEveryExportHasACaller fails when an exported function or method
// declared in a non-test file under cmd/ or internal/ is referenced neither
// from a non-test file (in cmd/, internal/, examples/ or bench/) nor from a
// _test.go file in another directory. A reference from inside a function
// that is itself without callers does not count, so code reachable only
// from such a function is reported as well. internal/dist/disttest is
// test-support code and is exempt; so are the standard-library interface
// methods above, and the names in keptTestOnly.
//
// Matching is by name only, so it is a floor: a dead method or function
// that shares its name with a live one, or with a field someone reads, is
// not caught, nor is one called only from a dead unexported function.
func TestEveryExportHasACaller(t *testing.T) {
	var decls []exportDecl
	refs := map[string][]exportRef{}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir // the go tool ignores it too
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			test := strings.HasSuffix(path, "_test.go")
			declared := (root == "cmd" || root == "internal") && dir != "internal/dist/disttest"
			for _, decl := range f.Decls {
				within := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					within = dir + "." + funcKey(fd)
					if declared && !test && !(fd.Recv != nil && interfaceMethods[fd.Name.Name]) {
						decls = append(decls, exportDecl{dir, within, fd.Name.Name})
					}
				}
				for _, name := range usedNames(decl) {
					refs[name] = append(refs[name], exportRef{dir, within, test})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Grow the dead set to a fixed point: a name used only from dead
	// functions (or only by its own package's tests) is dead too.
	dead := map[string]bool{}
	hasCaller := func(d exportDecl) bool {
		for _, r := range refs[d.name] {
			if r.within != d.key && !dead[r.within] && !(r.test && r.dir == d.dir) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if !dead[d.key] && keptTestOnly[d.key] == "" && !hasCaller(d) {
				dead[d.key] = true
				changed = true
			}
		}
	}
	var names []string
	for k := range dead {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		t.Errorf("%s has no caller outside its own package's tests: delete it, move it into a _test.go file, or add it to keptTestOnly with the reason", k)
	}
	for k := range keptTestOnly {
		needed := false
		for _, d := range decls {
			needed = needed || (d.key == k && !hasCaller(d))
		}
		if !needed {
			t.Errorf("keptTestOnly names %s, which is not declared or has callers: drop it from the list", k)
		}
	}
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

// usedNames returns the identifiers in decl that may name a function or
// method: every identifier except declared names (functions, types,
// variables, parameters, struct fields) and struct-literal field keys.
// Interface method names count, since a type's method is used when the
// type is used through an interface that lists it.
func usedNames(decl ast.Decl) []string {
	skip := map[*ast.Ident]bool{}
	skipFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				skip[n] = true
			}
		}
	}
	var names []string
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			skip[x.Name] = true
			skipFields(x.Recv)
		case *ast.FuncType:
			skipFields(x.TypeParams)
			skipFields(x.Params)
			skipFields(x.Results)
		case *ast.StructType:
			skipFields(x.Fields)
		case *ast.TypeSpec:
			skip[x.Name] = true
			skipFields(x.TypeParams)
		case *ast.ValueSpec:
			for _, n := range x.Names {
				skip[n] = true
			}
		case *ast.KeyValueExpr:
			if k, ok := x.Key.(*ast.Ident); ok {
				skip[k] = true
			}
		case *ast.Ident:
			if !skip[x] && x.IsExported() {
				names = append(names, x.Name)
			}
		}
		return true
	})
	return names
}
