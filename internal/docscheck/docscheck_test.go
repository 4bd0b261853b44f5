// Package docscheck keeps the documentation honest: its tests fail on
// broken intra-repository markdown links, on exported identifiers of the
// public API surface (pkg/podc and internal/family) that lack a godoc
// comment, and on a DESIGN.md waiver table that no longer lists exactly
// the tree's //lint: waivers.  CI runs it as the docs job; locally it is
// part of the ordinary go test ./... run.
package docscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
)

// repoRoot locates the repository root relative to this file.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate this source file")
	}
	root, err := filepath.Abs(filepath.Join(filepath.Dir(file), "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root %s has no go.mod: %v", root, err)
	}
	return root
}

// markdownLink matches inline markdown links and images; the first group
// is the target.
var markdownLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinksResolve walks every markdown file of the repository and
// asserts that each relative (intra-repo) link target exists.  External
// links (with a scheme) and pure anchors are skipped; anchors on relative
// links are stripped before the existence check.
func TestMarkdownLinksResolve(t *testing.T) {
	root := repoRoot(t)
	var mdFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — the walk is broken")
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(root, md)
		for _, match := range markdownLink.FindAllStringSubmatch(string(data), -1) {
			target := match[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken intra-repo link %q (resolved to %s)", rel, match[1], resolved)
			}
		}
	}
}

// documentedPackages are the API surfaces whose exported identifiers must
// carry godoc comments.
var documentedPackages = []string{"pkg/podc", "internal/family"}

// TestExportedIdentifiersDocumented parses the documented packages and
// fails for every exported declaration — function, method, type, or
// top-level const/var group — without a doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	root := repoRoot(t)
	for _, pkgDir := range documentedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, filepath.Join(root, pkgDir), func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", pkgDir, err)
		}
		for _, pkg := range pkgs {
			for fileName, file := range pkg.Files {
				rel, _ := filepath.Rel(root, fileName)
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if !d.Name.IsExported() {
							continue
						}
						if d.Recv != nil && !receiverExported(d.Recv) {
							continue
						}
						if d.Doc.Text() == "" {
							t.Errorf("%s:%d: exported %s lacks a godoc comment",
								rel, fset.Position(d.Pos()).Line, funcLabel(d))
						}
					case *ast.GenDecl:
						checkGenDecl(t, fset, rel, d)
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the godoc surface).
func receiverExported(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "function " + d.Name.Name
	}
	return "method " + d.Name.Name
}

// checkGenDecl requires a doc comment on every exported type spec and on
// const/var groups that declare exported names (a group comment on the
// decl or a comment on the individual spec both count).
func checkGenDecl(t *testing.T, fset *token.FileSet, rel string, d *ast.GenDecl) {
	t.Helper()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc.Text() == "" && s.Doc.Text() == "" {
				t.Errorf("%s:%d: exported type %s lacks a godoc comment",
					rel, fset.Position(s.Pos()).Line, s.Name.Name)
			}
		case *ast.ValueSpec:
			exported := false
			for _, name := range s.Names {
				if name.IsExported() {
					exported = true
				}
			}
			if !exported {
				continue
			}
			if d.Doc.Text() == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
				t.Errorf("%s:%d: exported const/var %v lacks a godoc comment",
					rel, fset.Position(s.Pos()).Line, s.Names)
			}
		}
	}
}

// waiverTableIntro is the DESIGN.md sentence the waiver table follows.
const waiverTableIntro = "Waivers currently in the tree:"

// TestWaiverTableMatchesTree pins DESIGN.md §8's waiver table to the tree:
// its rows, as (file, directive, justification) with backticks dropped,
// must be exactly the //lint: waivers lint.TreeWaivers finds, as many
// times each.  Rows carry no line numbers, so ordinary edits do not stale
// the table; adding, moving to another file or removing a waiver does.
func TestWaiverTableMatchesTree(t *testing.T) {
	root := repoRoot(t)
	data, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), waiverTableIntro)
	if !ok {
		t.Fatalf("DESIGN.md lacks %q", waiverTableIntro)
	}
	var documented []string
	for _, line := range strings.Split(strings.TrimLeft(table, "\n"), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 {
			t.Fatalf("waiver table row %q does not have 3 cells", line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(strings.ReplaceAll(cells[i], "`", ""))
		}
		if cells[0] == "file" || strings.Trim(cells[0], "-") == "" {
			continue // header and separator
		}
		documented = append(documented, strings.Join(cells, " | "))
	}
	waivers, err := lint.TreeWaivers(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	// count[row] is the row's waivers in the tree minus its table rows.
	count := make(map[string]int)
	for _, w := range waivers {
		rel, err := filepath.Rel(root, w.File)
		if err != nil {
			t.Fatal(err)
		}
		count[fmt.Sprintf("%s | %s | %s", filepath.ToSlash(rel), w.Directive, w.Reason)]++
	}
	for _, row := range documented {
		count[row]--
	}
	for row, c := range count {
		switch {
		case c > 0:
			t.Errorf("DESIGN.md §8 waiver table lacks %d of the tree's waivers %q", c, row)
		case c < 0:
			t.Errorf("DESIGN.md §8 waiver table lists %q %d more times than the tree has it", row, -c)
		}
	}
}
