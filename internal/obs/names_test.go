package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCanonicalNameConventions pins the naming rules the inventory
// documents: the madgo_ prefix, _total counters, _seconds histograms, and
// unit suffixes on rate gauges.
func TestCanonicalNameConventions(t *testing.T) {
	seen := make(map[string]bool)
	for _, n := range CanonicalMetricNames {
		if seen[n] {
			t.Errorf("duplicate canonical name %q", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "madgo_") {
			t.Errorf("%q does not start with madgo_", n)
		}
		if strings.Contains(n, "rate") && !strings.HasSuffix(n, "_per_second") {
			t.Errorf("rate gauge %q lacks the _per_second unit suffix", n)
		}
		if strings.HasSuffix(n, "_total") && strings.Contains(n, "_seconds") {
			t.Errorf("%q mixes the counter and histogram suffixes", n)
		}
	}
}

// metricLiteral matches a quoted madgo_* metric name in Go source.
var metricLiteral = regexp.MustCompile(`"(madgo_[a-z0-9_]+)"`)

// TestCanonicalNamesMatchSources is the drift audit between the sources and
// the inventory: every madgo_* literal in the repository's non-test sources
// must be in CanonicalMetricNames, and every canonical name must still be
// mentioned somewhere — so both adding an undocumented metric and renaming one
// without updating the inventory fail here. (The audit between Stats fields
// and counter series, both ways, is the root package's
// TestStatsFieldsAndSeriesAudit, which can see madeleine.Stats.)
func TestCanonicalNamesMatchSources(t *testing.T) {
	root := "../.." // the obs package sits at <module>/internal/obs
	canonical := make(map[string]bool, len(CanonicalMetricNames))
	for _, n := range CanonicalMetricNames {
		canonical[n] = false // value flips to true when a source mentions it
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "examples" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range metricLiteral.FindAllStringSubmatch(string(src), -1) {
			name := m[1]
			if _, ok := canonical[name]; !ok {
				t.Errorf("%s mentions %q, which is not in obs.CanonicalMetricNames", path, name)
				continue
			}
			canonical[name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, used := range canonical {
		if !used {
			t.Errorf("canonical name %q is mentioned by no source file — stale inventory entry?", name)
		}
	}
}

// TestWritesGoThroughBoundHandles keeps the slow path from creeping back
// (DESIGN.md §19): outside this package, no non-test source may write a
// series by name — a three-argument Add/Set/Observe/ObserveDuration on a
// registry rebuilds the canonical key on every call — or bind and write in
// one expression, which is the same thing spelled differently; and a label
// set may only be built where it is bound once or used to query, that is in a
// function that also calls Bind* or one of the registry's readers. The
// ledger under benchmark/ is its own module and measures the string-keyed
// door on purpose.
func TestWritesGoThroughBoundHandles(t *testing.T) {
	root := "../.."
	selector := func(e ast.Expr) (x, sel string) {
		if s, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := s.X.(*ast.Ident); ok {
				x = id.Name
			}
			return x, s.Sel.Name
		}
		return "", ""
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "benchmark":
				return filepath.SkipDir
			}
			if rel, _ := filepath.Rel(root, path); rel == filepath.Join("internal", "obs") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			var labelLits []token.Pos
			bindsOrReads := false
			ast.Inspect(fn, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					_, name := selector(n.Fun)
					switch name {
					case "Add", "Set", "Observe", "ObserveDuration":
						if len(n.Args) == 3 {
							t.Errorf("%s: string-keyed %s(name, labels, v): bind a handle once and write through it", fset.Position(n.Pos()), name)
						}
						if inner, ok := n.Fun.(*ast.SelectorExpr).X.(*ast.CallExpr); ok {
							if _, bind := selector(inner.Fun); strings.HasPrefix(bind, "Bind") {
								t.Errorf("%s: %s(...).%s binds on every write: keep the handle", fset.Position(n.Pos()), bind, name)
							}
						}
					case "BindCounter", "BindGauge", "BindHistogram", "Counter", "Gauge", "Quantile", "HistogramCount":
						bindsOrReads = bindsOrReads || len(n.Args) >= 2
					}
				case *ast.CompositeLit:
					if x, name := selector(n.Type); x == "obs" && name == "Labels" || name == "MetricLabels" {
						labelLits = append(labelLits, n.Pos())
					}
				}
				return true
			})
			if !bindsOrReads {
				for _, pos := range labelLits {
					t.Errorf("%s: label set built in %s, which neither binds a handle nor queries the registry", fset.Position(pos), fn.Name.Name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
