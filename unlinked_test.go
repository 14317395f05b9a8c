//go:build unlinked

package dike

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryLibraryFunctionLinked fails for each function under
// internal/ that no binary of the repository links. It builds the
// commands, the examples and cmd/dikeperf (plain and with -tags trace)
// with inlining off, so a function that is only ever inlined still
// leaves its symbol, and compares `go tool nm` of the binaries with the
// non-test function declarations of the library. Generic functions have
// no symbol under their own name and are skipped, as is the platformtest
// kit, which only tests link. The linker keeps methods conservatively,
// so the check can miss dead code but never flags linked code.
//
// Building every binary cold takes about half a minute on two cores, so
// this runs only with the build tag:
//
//	go test -tags unlinked -count=1 -run TestEveryLibraryFunctionLinked .
func TestEveryLibraryFunctionLinked(t *testing.T) {
	bin := t.TempDir()
	goBuild := func(dir string, args ...string) {
		t.Helper()
		args = append([]string{"build", "-C", dir, "-buildvcs=false", "-gcflags=all=-l"}, args...)
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	goBuild(".", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	goBuild("cmd/dikeperf", "-o", filepath.Join(bin, "dikeperf"), ".")
	goBuild("cmd/dikeperf", "-tags", "trace", "-o", filepath.Join(bin, "dikeperf-trace"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 16 {
		t.Fatalf("built %d binaries, want the 9 commands, the 5 examples and 2 dikeperf builds", len(entries))
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) >= 3 {
				linked[f[len(f)-1]] = true
			}
		}
	}

	var unlinked []string
	checked := 0
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "platformtest" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "dike/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" || fn.Type.TypeParams != nil {
				continue
			}
			names, generic := symbols(pkg, fn)
			if generic {
				continue
			}
			checked++
			found := false
			for _, n := range names {
				found = found || linked[n]
			}
			if !found {
				unlinked = append(unlinked, fset.Position(fn.Pos()).String()+": "+names[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unlinked {
		t.Errorf("%s is linked into no binary", u)
	}
	t.Logf("%d of %d library functions are linked into no binary", len(unlinked), checked)
}

// symbols gives the names the linker may list fn under: a plain
// function or a method on *T has one, a method on T has T.M and the
// (*T).M wrapper. It reports whether fn is a method of a generic type.
func symbols(pkg string, fn *ast.FuncDecl) ([]string, bool) {
	if fn.Recv == nil {
		return []string{pkg + "." + fn.Name.Name}, false
	}
	typ := fn.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	if !ok {
		return nil, true // T[P] or T[P, Q]
	}
	byPtr := pkg + ".(*" + id.Name + ")." + fn.Name.Name
	if ptr {
		return []string{byPtr}, false
	}
	return []string{pkg + "." + id.Name + "." + fn.Name.Name, byPtr}, false
}
