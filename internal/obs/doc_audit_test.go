package obs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageDocAudit enforces the repo's godoc contract: every package
// under internal/ carries a package doc comment beginning "Package <name>"
// stating its role, and every command under cmd/ one beginning "Command".
// CI runs this (plus go vet) so a new package cannot land undocumented.
func TestPackageDocAudit(t *testing.T) {
	for _, root := range []string{"../../internal", "../../cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			dir := filepath.Join(root, e.Name())
			fset := token.NewFileSet()
			pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			for name, pkg := range pkgs {
				if strings.HasSuffix(name, "_test") {
					continue
				}
				want := "Package " + name + " "
				if name == "main" {
					want = "Command "
				}
				docs := 0
				for file, f := range pkg.Files {
					if f.Doc == nil {
						continue
					}
					docs++
					text := f.Doc.Text()
					if !strings.HasPrefix(text, want) {
						t.Errorf("%s: package doc must start with %q, got %q",
							file, want, firstLine(text))
					}
				}
				if docs == 0 {
					t.Errorf("package %s (%s) has no package doc comment", name, dir)
				}
				if docs > 1 {
					t.Errorf("package %s (%s) has %d package doc comments; keep one canonical doc",
						name, dir, docs)
				}
			}
		}
	}
}

// TestExportedTypeDocAudit requires a doc comment on every exported type in
// the packages listed — the continual-learning package, whose exported
// surface (Controller, Swap, Config, Params) is the hot-swap contract both
// campaign engines program against, and the cluster package, whose exported
// surface (wire messages, handshake types, checkpoint format) is the
// compatibility contract between coordinator and workers.
func TestExportedTypeDocAudit(t *testing.T) {
	for _, dir := range []string{"../online", "../cluster"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			for file, f := range pkg.Files {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.TYPE {
						continue
					}
					for _, spec := range gd.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !ts.Name.IsExported() {
							continue
						}
						if gd.Doc == nil && ts.Doc == nil {
							pos := fset.Position(ts.Pos())
							t.Errorf("%s:%d: exported type %s.%s has no doc comment",
								file, pos.Line, name, ts.Name.Name)
						}
					}
				}
			}
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
