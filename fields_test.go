package dike

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// readExempt lists the fields under internal/ that non-test code writes
// and never reads, yet which stay, keyed "package.Type.Field".
var readExempt = map[string]bool{
	// Inputs of the bench-baseline gate: TestBenchBaselinesPinned and its
	// siblings read them when they compare a fresh document with the one
	// under bench/.
	"dike/internal/harness.Experiment.Check": true,
	"dike/internal/harness.Report.Bench":     true,
	// cmd/dikeperf's trace build assigns it; the benchmark's directory is
	// changed only together with the benchmark.
	"dike/internal/harness.RunOutput.DecisionTime": true,
	// The solver's oracle tests and BenchmarkContentionSolve read the pass
	// count, which is the solver's own cost measure.
	"dike/internal/machine.contentionSolver.passes": true,
}

// digestKeyed lists the structs whose every field Digest reads through
// encoding/json, which no selector shows.
var digestKeyed = map[string]bool{
	"dike/internal/harness.specKey":    true,
	"dike/internal/harness.machineKey": true,
	"dike/internal/harness.poolLayout": true,
}

// TestEveryFieldRead fails for each field of a struct declared under
// internal/ that non-test code writes by name but never reads: state
// that is computed and kept for nobody. It type-checks the non-test
// files of the module's packages and of cmd/dikeperf (plain and with
// -tags trace). A write is an assignment or ++/-- to a selector, with
// any index stripped, a key in a composite literal, or a use of the
// field on the right of an assignment to the same field (x.f =
// append(x.f, v)). Embedded fields and fields with a struct tag are
// skipped, as are the structs Digest encodes.
//
// A failure names the field's declaration: delete the field and the work
// that fills it, or read it where it is meant to be seen. A field that
// only tests read moves to the tests with the code that fills it.
func TestEveryFieldRead(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]string{} // declaration position → package.Type.Field
	written := map[string]bool{}
	read := map[string]bool{}
	for _, u := range []struct{ dir, tags string }{{".", ""}, {"cmd/dikeperf", ""}, {"cmd/dikeperf", "trace"}} {
		scanFields(t, u.dir, u.tags, fields, written, read)
	}
	var bad []string
	seen := map[string]bool{}
	for pos, name := range fields {
		seen[name] = true
		switch {
		case readExempt[name] && read[pos]:
			t.Errorf("readExempt names %s, which non-test code reads", name)
		case !readExempt[name] && written[pos] && !read[pos]:
			if rel, err := filepath.Rel(root, pos); err == nil {
				pos = rel
			}
			bad = append(bad, pos+": "+name)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is written and never read", b)
	}
	for name := range readExempt {
		if !seen[name] {
			t.Errorf("readExempt names %s, which is no field", name)
		}
	}
	t.Logf("%d fields under internal/, %d written and never read", len(fields), len(bad))
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
}

// scanFields type-checks the packages `go list -deps` gives for ./... in
// dir and records the internal/ struct fields, which of them non-test
// code writes and which it reads, each keyed by the field's position.
func scanFields(t *testing.T, dir, tags string, fields map[string]string, written, read map[string]bool) {
	t.Helper()
	args := []string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles,CgoFiles"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
		} else {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	// go list -deps lists each package after its dependencies.
	for _, p := range pkgs {
		if len(p.CgoFiles) > 0 {
			t.Fatalf("%s has cgo files", p.ImportPath)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if strings.Contains(p.ImportPath, "/internal/") {
			declaredFields(fset, pkg, files, fields)
		}
		fieldUses(fset, files, info, written, read)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declaredFields records the fields of the structs in files, each named
// by the type it belongs to; a struct outside a type declaration is
// named "struct".
func declaredFields(fset *token.FileSet, pkg *types.Package, files []*ast.File, fields map[string]string) {
	for _, f := range files {
		owner := map[*ast.StructType]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			if spec, ok := n.(*ast.TypeSpec); ok {
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						owner[st] = spec.Name.Name
					}
					return true
				})
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			typeName := pkg.Path() + "." + owner[st]
			if owner[st] == "" {
				typeName += "struct"
			}
			if digestKeyed[typeName] {
				return true
			}
			for _, field := range st.Fields.List {
				if field.Tag != nil {
					continue
				}
				for _, id := range field.Names { // none when embedded
					if id.Name != "_" {
						fields[fset.Position(id.Pos()).String()] = typeName + "." + id.Name
					}
				}
			}
			return true
		})
	}
}

// fieldUses records every use of a field in files as a write or a read.
func fieldUses(fset *token.FileSet, files []*ast.File, info *types.Info, written, read map[string]bool) {
	fieldOf := func(e ast.Expr) *types.Var {
		var obj types.Object
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				obj = sel.Obj()
			}
		case *ast.Ident:
			obj = info.Uses[e]
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	key := func(v *types.Var) string { return fset.Position(v.Pos()).String() }
	// target strips indexing and parentheses from an assigned expression.
	target := func(e ast.Expr) ast.Expr {
		for {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return e
			}
		}
	}
	writes := map[*ast.SelectorExpr]bool{}   // selectors used as assignment targets
	excluded := map[*ast.SelectorExpr]bool{} // uses on the right of an assignment to the same field
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// lhs[i] is the field the i-th target assigns, or nil.
				lhs := make([]*types.Var, len(n.Lhs))
				for i, l := range n.Lhs {
					if sel, ok := target(l).(*ast.SelectorExpr); ok {
						if lhs[i] = fieldOf(sel); lhs[i] != nil {
							writes[sel] = true
						}
					}
				}
				for i, r := range n.Rhs {
					assigned := lhs // one call's results fill every target
					if len(n.Rhs) == len(n.Lhs) {
						assigned = lhs[i : i+1] // a, b = b, a reads both
					}
					ast.Inspect(r, func(n ast.Node) bool {
						if sel, ok := n.(*ast.SelectorExpr); ok {
							for _, v := range assigned {
								if v != nil && fieldOf(sel) == v {
									excluded[sel] = true
								}
							}
						}
						return true
					})
				}
			case *ast.IncDecStmt:
				if sel, ok := target(n.X).(*ast.SelectorExpr); ok && fieldOf(sel) != nil {
					writes[sel] = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v := fieldOf(id); v != nil {
								written[key(v)] = true
							}
						}
					}
				}
			}
			return true
		})
	}
	for sel, s := range info.Selections {
		if s.Kind() != types.FieldVal {
			continue
		}
		k := key(s.Obj().(*types.Var))
		switch {
		case writes[sel]:
			written[k] = true
		case !excluded[sel]:
			read[k] = true
		}
	}
}
