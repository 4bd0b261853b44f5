package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The driver tests run Main in-process, asserting the exit-code contract
// (0 clean, 1 findings, 2 errors) and the file:line:col diagnostic format.

func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = Main(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestMainFindings(t *testing.T) {
	code, out, errb := runMain(t, "./testdata/src/goleak/spawn")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	diagRe := regexp.MustCompile(`(?m)^testdata/src/goleak/spawn/spawn\.go:\d+:\d+: goleak: `)
	if !diagRe.MatchString(out) {
		t.Fatalf("stdout has no file:line:col: goleak: diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "goroutine has no visible exit signal") {
		t.Fatalf("stdout misses the goleak message:\n%s", out)
	}
	if !strings.Contains(errb, "repolint: 2 finding(s)") {
		t.Fatalf("stderr misses the findings summary: %q", errb)
	}
}

func TestMainSortsDiagnostics(t *testing.T) {
	_, out, _ := runMain(t, "./testdata/src/goleak/spawn", "./testdata/src/pooldiscipline/pool")
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	if len(lines) < 2 {
		t.Fatalf("expected several findings, got:\n%s", out)
	}
	posRe := regexp.MustCompile(`^(.*?):(\d+):(\d+): `)
	type pos struct {
		file      string
		line, col int
	}
	parse := func(l string) pos {
		m := posRe.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("diagnostic %q has no file:line:col prefix", l)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		return pos{m[1], line, col}
	}
	prev := parse(lines[0])
	for _, l := range lines[1:] {
		cur := parse(l)
		if cur.file < prev.file ||
			cur.file == prev.file && (cur.line < prev.line ||
				cur.line == prev.line && cur.col < prev.col) {
			t.Fatalf("diagnostics not sorted: %q after %v", l, prev)
		}
		prev = cur
	}
}

func TestMainClean(t *testing.T) {
	code, out, errb := runMain(t, "./testdata/src/clean")
	if code != 0 || out != "" {
		t.Fatalf("clean package: exit %d, stdout %q, stderr %q", code, out, errb)
	}
}

func TestMainNoGoFiles(t *testing.T) {
	// A directory without Go files is skipped, not an error.
	code, out, _ := runMain(t, "./testdata/src")
	if code != 0 || out != "" {
		t.Fatalf("no-Go-files dir: exit %d, stdout %q", code, out)
	}
}

func TestMainWaiversFlag(t *testing.T) {
	code, out, _ := runMain(t, "-waivers", "./testdata/src/goleak/spawn")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(out, "//lint:goleak debug listener lives for the whole process") {
		t.Fatalf("waiver listing misses the justified waiver:\n%s", out)
	}
}

func TestMainErrors(t *testing.T) {
	if code, _, _ := runMain(t, "./does-not-exist/..."); code != 2 {
		t.Fatalf("missing dir: exit %d, want 2", code)
	}
	if code, _, _ := runMain(t, "-no-such-flag"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	dirs, err := expandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Fatalf("expandPatterns(./...) descended into %s", d)
		}
	}
	if len(dirs) != 1 {
		t.Fatalf("expandPatterns(./...) from internal/lint = %v, want just .", dirs)
	}
}

func TestMainSkipsNestedModules(t *testing.T) {
	// A directory holding its own go.mod is a separate module: ./... stops
	// there, as it does for the go tool, so a nested package that would
	// fail to type-check under the outer module's import path is never
	// loaded.
	root := t.TempDir()
	files := map[string]string{
		"go.mod":              "module example.com/outer\n\ngo 1.24\n",
		"ok/ok.go":            "package ok\n\nfunc F() int { return 1 }\n",
		"nested/go.mod":       "module example.com/nested\n\ngo 1.24\n",
		"nested/bad.go":       "package bad\n\nvar X int = \"not an int\"\n",
		"nested/deep/deep.go": "package deep\n\nimport \"example.com/nested/missing\"\n\nvar _ = missing.Y\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, errb := runMain(t, root+"/...")
	if code != 0 || out != "" {
		t.Fatalf("tree with a nested module: exit %d, stdout %q, stderr %q", code, out, errb)
	}
	if code, _, _ := runMain(t, filepath.Join(root, "nested")); code != 2 {
		t.Fatalf("naming the nested package explicitly: exit %d, want 2 (it must fail to type-check)", code)
	}
}
