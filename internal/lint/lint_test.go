package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestMatchPath(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"internal/ring", true},
		{"repro/internal/ring", true},
		{"x/testdata/src/detrange/internal/ring", true},
		{"repro/internal/ringbuffer", false},
		{"internal/ring/sub", false},
		{"ring", false},
	}
	scope := []string{"internal/ring"}
	for _, c := range cases {
		if got := matchPath(c.path, scope); got != c.want {
			t.Errorf("matchPath(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestWaivers(t *testing.T) {
	ws, err := TreeWaivers(filepath.Join("testdata", "src", "goleak", "spawn"))
	if err != nil {
		t.Fatal(err)
	}
	var justified, bare int
	for _, w := range ws {
		if w.Directive != "goleak" {
			t.Errorf("unexpected directive %q", w.Directive)
		}
		if w.Reason == "" {
			bare++
		} else {
			justified++
		}
	}
	if justified != 1 || bare != 1 {
		t.Fatalf("TreeWaivers = %d justified, %d bare; want 1 and 1", justified, bare)
	}
}

func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "clean", "clean")
	d := pkg.Diag(pkg.Files[0].Pos(), "demo", "n = %d", 7)
	s := d.String()
	if !strings.HasSuffix(s, ": demo: n = 7") || !strings.Contains(s, "clean.go:") {
		t.Fatalf("Diagnostic.String() = %q", s)
	}
}
