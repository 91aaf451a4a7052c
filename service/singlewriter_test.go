package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSingleLogWriter checks the one-writer rule in the source instead of
// trusting a comment: in this package's non-test files only pipeline.go —
// the commit function — may call AppendNoSync, Sync or Probe on the log.
// AppendNoSync and Probe are the log's names alone; a Sync is the log's
// when its receiver is walRef() or wal.Load(), or a name declared as a
// *wal.WAL or assigned from one of those calls (files have a Sync too).
// And the log has no writer of its own to hide from that check: no
// non-test file of internal/wal starts a goroutine or a ticker.
func TestSingleLogWriter(t *testing.T) {
	fset, files := parsePackage(t, "../internal/wal", "wal", "wal.go")
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: internal/wal starts a goroutine; the log's only writer is the service's committer", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "time" && n.Sel.Name == "NewTicker" {
					t.Errorf("%s: internal/wal starts a ticker; a periodic fsync is a barrier job the service queues", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
	fset, files = parseService(t)
	for name, file := range files {
		if filepath.Base(name) == "pipeline.go" {
			continue
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
			switch sel.Sel.Name {
			case "Sync":
				if !isLog(sel.X) {
					return true
				}
			case "AppendNoSync", "Probe":
			default:
				return true
			}
			t.Errorf("%s calls %s on the log; only the commit function in pipeline.go may — queue a job instead",
				fset.Position(call.Pos()), sel.Sel.Name)
			return true
		})
	}
}

// TestFilesystemThroughConfigFS checks, the same way, that the package
// reaches the disk only through Config.FS: no non-test file calls into
// package os (its error values, such as os.ErrNotExist, are not calls), so
// a fault plan can reach every filesystem operation the daemon makes.
func TestFilesystemThroughConfigFS(t *testing.T) {
	fset, files := parseService(t)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// An unresolved identifier named os is the imported package.
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" && pkg.Obj == nil {
				t.Errorf("%s calls os.%s; route it through s.fs (Config.FS) so the fault harness can break it",
					fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// parseService parses this package's non-test files.
func parseService(t *testing.T) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	return parsePackage(t, ".", "service", "pipeline.go")
}

// parsePackage parses the non-test files of package name in dir, which
// must hold the file witness.
func parsePackage(t *testing.T, dir, name, witness string) (*token.FileSet, map[string]*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[name]
	if pkg == nil || pkg.Files[filepath.Join(dir, witness)] == nil {
		t.Fatalf("did not find package %s with %s in %s: %v", name, witness, dir, pkgs)
	}
	return fset, pkg.Files
}

// isLog reports whether x is, as far as one file's syntax shows, the
// server's *wal.WAL.
func isLog(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.CallExpr: // s.walRef(), s.wal.Load(), wal.Open(...)
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch on := sel.X.(type) {
		case *ast.Ident:
			return sel.Sel.Name == "walRef" || (on.Name == "wal" && sel.Sel.Name == "Open")
		case *ast.SelectorExpr:
			return on.Sel.Name == "wal" && sel.Sel.Name == "Load"
		}
	case *ast.Ident:
		if x.Obj == nil {
			return false
		}
		switch decl := x.Obj.Decl.(type) {
		case *ast.Field: // a parameter: w *wal.WAL
			return isWALType(decl.Type)
		case *ast.ValueSpec: // var w *wal.WAL, var w = s.walRef()
			if isWALType(decl.Type) {
				return true
			}
			for i, n := range decl.Names {
				if n.Name == x.Name && i < len(decl.Values) {
					return isLog(decl.Values[i])
				}
			}
		case *ast.AssignStmt: // w := s.walRef(); w, err := wal.Open(...)
			for i, lhs := range decl.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == x.Name && i < len(decl.Rhs) {
					return isLog(decl.Rhs[i])
				}
			}
		}
	}
	return false
}

// isWALType reports whether t is spelled *wal.WAL.
func isWALType(t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WAL" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "wal"
}
