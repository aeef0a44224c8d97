package fwd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestStreamWireFormatInOneFile keeps the streaming wire format one file's
// knowledge (DESIGN.md §22): outside stream.go no non-test source of this
// package may spell out a transfer's metadata (a mad.TxMeta literal) or post a
// receive for one (.RecvInto or .RecvIntoSpent, which only *mad.Link has) —
// except the relay, which re-emits what it received, and the reliable
// datagram protocol with its health probes, which is a wire format of its
// own. And stream.go itself sends through at most four literals: first
// transfer, fragment, terminator.
func TestStreamWireFormatInOneFile(t *testing.T) {
	allowed := map[string]bool{"stream.go": true, "gateway.go": true, "reliable.go": true, "health.go": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		literals := 0
		ast.Inspect(file, func(n ast.Node) bool {
			what := ""
			switch n := n.(type) {
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "TxMeta" {
					what = "a mad.TxMeta literal"
					literals++
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "RecvInto") {
					what = "a " + sel.Sel.Name + " call"
				}
			}
			if what != "" && !allowed[name] {
				t.Errorf("%s: %s outside stream.go: send through streamTx, receive through streamRx", fset.Position(n.Pos()), what)
			}
			return true
		})
		if name == "stream.go" && literals > 4 {
			t.Errorf("stream.go spells out %d transfers; the writer has three (first transfer, fragment, terminator)", literals)
		}
	}
}
