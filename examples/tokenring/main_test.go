package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMainSmoke runs the example end to end, so CI compiles *and* executes
// it (any internal error exits through log.Fatal and fails the test
// binary), and checks the answers it prints: the paper's two-process
// cutoff is refuted, the distinguishing formula separates M_2 from M_3,
// and the printed Appendix relation fails locally at r = 1000.
func TestMainSmoke(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	captured := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		captured <- buf.String()
	}()
	defer func() { os.Stdout = old }()
	main()
	w.Close()
	out := <-captured

	if !strings.Contains(out, "M_2 indexed-corresponds to M_3?  decision procedure says: false") {
		t.Errorf("M_2 vs M_3 verdict missing or not false:\n%s", out)
	}
	if !strings.Contains(out, "holds on M_2: false   holds on M_3: true") {
		t.Errorf("distinguishing formula line missing or wrong:\n%s", out)
	}
	m := regexp.MustCompile(`paper\s+relation: (\d+) clause violations`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("paper relation line missing:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Errorf("paper relation has %d violations at r = 1000, want more than 0", n)
	}
}
