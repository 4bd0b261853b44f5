package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ErrNoGoFiles is returned by Loader.Load for a directory with no non-test
// Go files; drivers skip such directories.
var ErrNoGoFiles = errors.New("no non-test Go files")

// Loader parses and type-checks packages from source.  One Loader shares a
// FileSet and a "source" importer across every Load call, so each dependency
// (including the standard library) is type-checked at most once per run.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader returns a Loader backed by importer.ForCompiler(fset, "source"):
// dependencies are resolved from source via go/build, which is module-aware,
// so the zero-dependency module needs no export data and no external tools.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// Load parses the non-test Go files of the package in dir and type-checks
// them under the import path pkgPath.  Analyzers see test files never: the
// invariants the suite encodes are production-code disciplines, and test
// helpers iterate maps and spawn throwaway goroutines freely.
func (l *Loader) Load(dir, pkgPath string) (*Package, error) {
	abs, files, err := parseDir(l.Fset, dir)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	p := &Package{
		Fset:  l.Fset,
		Path:  pkgPath,
		Dir:   abs,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	p.buildWaivers()
	return p, nil
}

// parseDir parses the non-test Go files of the package in dir, in file
// name order, and returns them with the directory's absolute path.
func parseDir(fset *token.FileSet, dir string) (string, []*ast.File, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return "", nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return "", nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return "", nil, fmt.Errorf("%s: %w", dir, ErrNoGoFiles)
	}
	return abs, files, nil
}

// modulePath ascends from dir to the nearest go.mod and returns the module
// root directory and module path.
func modulePath(dir string) (modDir, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

// importPathFor maps a package directory to its import path within the
// module governing it.
func importPathFor(dir string) (string, error) {
	modDir, modPath, err := modulePath(dir)
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modDir, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + filepath.ToSlash(rel), nil
}

// expandPatterns turns go-list-style patterns ("./...", "./internal/ring",
// "internal/lint/...") into the sorted list of package directories that
// contain at least one non-test Go file.  Like the go tool, the walk prunes
// testdata, vendor and hidden/underscore directories — golden analyzer
// fixtures under testdata are analyzed only when named explicitly — and
// every directory below the walk root holding its own go.mod, since that
// is a separate module the go tool's ./... does not reach either.
func expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		clean := filepath.Clean(dir)
		if !seen[clean] {
			seen[clean] = true
			dirs = append(dirs, clean)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = filepath.Clean(strings.TrimSuffix(root, "/"))
		if root == "" {
			root = "."
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
