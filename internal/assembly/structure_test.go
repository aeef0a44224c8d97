package assembly_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSystemsAreAssembledInOnePlace keeps it one way (DESIGN.md §26). Walking
// every non-test Go file outside benchmark/ (a module of its own, with its own
// testbeds): a platform, a session and a virtual channel are made in
// assembly.Build and nowhere else — but for the harness's fixtures that are
// not virtual channels — and inside internal/bench a message is unpacked only
// by the bed's recv helpers and those same fixtures, so an experiment streams
// through Bed.Stream or composes send and recv, and cannot grow a loop of its
// own.
func TestSystemsAreAssembledInOnePlace(t *testing.T) {
	const (
		build    = "internal/assembly/assembly.go"
		bed      = "internal/bench/bed.go"
		fixtures = "internal/bench/raw.go"
	)
	// call -> file -> how many times the file may make it, and why.
	allowed := map[string]map[string]int{
		"fwd.Build": {build: 1},
		"hw.NewPlatform": {
			build:    1,
			fixtures: 2, // newRawPair (a raw mad channel; a7 shares it), NewBaselineBed (package baseline's own bindings)
		},
		"mad.NewSession": {build: 1, fixtures: 2},
		".BeginUnpacking": {
			bed:      2, // recvFrom, which Stream, PingSeries and the composed shapes receive through, and recvEth, the §3.1 ping's ack on a raw channel
			fixtures: 1, // RawPair.oneWay, raw mad endpoints
		},
	}
	seen := map[string]map[string]int{}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if rel == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			what := ""
			if pkg, ok := sel.X.(*ast.Ident); ok {
				what = pkg.Name + "." + sel.Sel.Name
			}
			if sel.Sel.Name == "BeginUnpacking" && strings.HasPrefix(rel, "internal/bench/") {
				what = ".BeginUnpacking"
			}
			if allowed[what] == nil {
				return true
			}
			if seen[what] == nil {
				seen[what] = map[string]int{}
			}
			if seen[what][rel]++; seen[what][rel] > allowed[what][rel] {
				t.Errorf("%s: %s( here: build systems with assembly.Build, stream through Bed.Stream or the bed's send/recv",
					fset.Position(call.Pos()), what)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for what, files := range allowed {
		for file, n := range files {
			if seen[what][file] != n {
				t.Errorf("%s: %d %s( calls, the test allows and expects %d: update its table", file, seen[what][file], what, n)
			}
		}
	}
}
