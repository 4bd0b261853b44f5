// Package lint implements the repository's own static analyzers: small
// AST+types passes that turn the engine's hardest-won dynamic guarantees —
// byte-identical deterministic builds, context-cancellation checkpoints in
// every engine loop, stripe-lock and BitSet-pool discipline, no leaked
// goroutines — into compile-time rules.  The dynamic test batteries
// (differential builds, cancel tests, race jobs) only catch a violation when
// a test happens to tickle it; these analyzers fail CI the moment the rule
// is broken, at the line that broke it.
//
// The suite is built exclusively on the standard library (go/parser, go/ast,
// go/types with the "source" importer): the module has zero external
// dependencies and must stay that way.
//
// A finding can be waived at the offending line (or the line above) with a
//
//	//lint:<directive> <why>
//
// comment.  The justification is mandatory: a bare waiver is itself a
// finding.  Directives in use: "ordered" (detrange), "ctxloop", "locks"
// (lockdiscipline), "pool" (pooldiscipline) and "goleak".  Every waiver in
// the tree is listed in DESIGN.md §8; `repolint -waivers` regenerates the
// raw list.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one analyzer finding at one source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical
// "file:line:col: analyzer: message" form the driver prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// An Analyzer checks one invariant over a loaded package.
type Analyzer interface {
	// Name identifies the analyzer in diagnostics and waiver directives.
	Name() string
	// Run returns every finding in the package.
	Run(pkg *Package) []Diagnostic
}

// All returns the full analyzer suite with its default package scopes, in
// the order the driver runs them.
func All() []Analyzer {
	return []Analyzer{
		NewDetRange(),
		NewCtxLoop(),
		NewLockDiscipline(),
		NewPoolDiscipline(),
		NewGoLeak(),
	}
}

// Waiver is one //lint:<directive> <why> comment.
type Waiver struct {
	File      string
	Line      int
	Directive string
	Reason    string
}

// Package is a parsed and type-checked package (non-test files only), the
// unit every analyzer runs over.
type Package struct {
	Fset  *token.FileSet
	Path  string // import path, used by analyzers with a package scope
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	waivers map[string][]Waiver // filename -> waivers, in file order
}

// Diag builds a Diagnostic for the node position pos.
func (p *Package) Diag(pos token.Pos, analyzer, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// buildWaivers indexes every //lint: comment in the package.
func (p *Package) buildWaivers() {
	p.waivers = make(map[string][]Waiver)
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		p.waivers[name] = fileWaivers(p.Fset, f)
	}
}

// fileWaivers returns the //lint: comments of one parsed file, in order.
func fileWaivers(fset *token.FileSet, f *ast.File) []Waiver {
	var out []Waiver
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:")
			if !ok {
				continue
			}
			directive, reason, _ := strings.Cut(text, " ")
			pos := fset.Position(c.Pos())
			out = append(out, Waiver{
				File:      pos.Filename,
				Line:      pos.Line,
				Directive: strings.TrimSpace(directive),
				Reason:    strings.TrimSpace(reason),
			})
		}
	}
	return out
}

// WaiverAt returns the waiver covering the source line of pos (the waiver
// sits on the same line or the line immediately above), or nil.
func (p *Package) WaiverAt(pos token.Pos, directive string) *Waiver {
	position := p.Fset.Position(pos)
	for i, w := range p.waivers[position.Filename] {
		if w.Directive == directive && (w.Line == position.Line || w.Line == position.Line-1) {
			return &p.waivers[position.Filename][i]
		}
	}
	return nil
}

// waive reports whether the finding at pos is suppressed by the directive.
// A waiver without a written justification still suppresses the original
// finding but produces its own diagnostic, so the tree cannot go green on
// bare waivers.
func (p *Package) waive(pos token.Pos, directive, analyzer string, diags *[]Diagnostic) bool {
	w := p.WaiverAt(pos, directive)
	if w == nil {
		return false
	}
	if w.Reason == "" {
		*diags = append(*diags, p.Diag(pos, analyzer,
			"//lint:%s waiver needs a written justification", directive))
	}
	return true
}

// matchPath reports whether the import path ends in one of the suffixes
// (on a path-segment boundary), e.g. "internal/ring" matches both
// "repro/internal/ring" and ".../testdata/src/detrange/internal/ring".
func matchPath(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// syncMethod returns the receiver-stripped name of the sync-package method a
// call invokes ("Lock", "RUnlock", "Wait", "Done", ...) together with the
// receiver expression, when call is a method call on a sync.Mutex,
// sync.RWMutex or sync.WaitGroup (possibly reached through embedding).
func syncMethod(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", nil, false
	}
	selection, okSel := info.Selections[sel]
	if !okSel {
		return "", nil, false
	}
	fn, okFn := selection.Obj().(*types.Func)
	if !okFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, false
	}
	return fn.Name(), sel.X, true
}

// calleeName returns a printable name for the called function, for messages.
func calleeName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// isConversionOrBuiltin reports whether the CallExpr is a type conversion or
// a builtin call (len, cap, append, ...) rather than a real function call.
func isConversionOrBuiltin(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := info.Uses[fun].(*types.Builtin); ok {
			return true
		}
	case *ast.SelectorExpr:
		if _, ok := info.Uses[fun.Sel].(*types.Builtin); ok {
			return true
		}
	}
	return false
}

// isTerminalCall reports whether the statement unconditionally ends the
// enclosing function: panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminalCall(info *types.Info, s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
			switch fn.Pkg().Path() + "." + fn.Name() {
			case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
				return true
			}
		}
	}
	return false
}
