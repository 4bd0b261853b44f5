package lint

import (
	"errors"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Main is the repolint driver: it expands the package patterns (default
// "./..."), loads each package, runs the full analyzer suite and prints
// "file:line:col: analyzer: message" diagnostics in deterministic order.
//
// Exit codes: 0 clean, 1 findings, 2 usage/load errors.  cmd/repolint is a
// thin wrapper; keeping the driver here lets the smoke test exercise exit
// codes and output format in-process.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: repolint [-waivers] [packages]")
		fs.PrintDefaults()
	}
	listWaivers := fs.Bool("waivers", false, "list every //lint: waiver in the tree instead of diagnostics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, _ := os.Getwd()
	if *listWaivers {
		waivers, err := TreeWaivers(patterns...)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		for _, w := range waivers {
			fmt.Fprintf(stdout, "%s:%d: //lint:%s %s\n", relTo(cwd, w.File), w.Line, w.Directive, w.Reason)
		}
		return 0
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	loader := NewLoader()
	analyzers := All()
	var diags []Diagnostic
	for _, dir := range dirs {
		pkgPath, err := importPathFor(dir)
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		pkg, err := loader.Load(dir, pkgPath)
		if errors.Is(err, ErrNoGoFiles) {
			continue
		}
		if err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
		for _, a := range analyzers {
			diags = append(diags, a.Run(pkg)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	for _, d := range diags {
		d.Pos.Filename = relTo(cwd, d.Pos.Filename)
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "repolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// TreeWaivers returns every //lint: waiver in the non-test files of the
// packages the patterns name, in directory and file order.  It parses but
// does not type-check, so listing the inventory stays cheap.
func TreeWaivers(patterns ...string) ([]Waiver, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []Waiver
	for _, dir := range dirs {
		_, files, err := parseDir(fset, dir)
		if errors.Is(err, ErrNoGoFiles) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			out = append(out, fileWaivers(fset, f)...)
		}
	}
	return out, nil
}

// relTo shortens abs to a cwd-relative path when that is tidier.
func relTo(cwd, abs string) string {
	if cwd == "" {
		return abs
	}
	if rel, err := filepath.Rel(cwd, abs); err == nil && !filepath.IsAbs(rel) && rel != "" && !isDotDot(rel) {
		return rel
	}
	return abs
}

func isDotDot(p string) bool {
	return p == ".." || len(p) > 2 && p[:3] == ".."+string(filepath.Separator)
}
