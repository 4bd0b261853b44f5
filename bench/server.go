package bench

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/podcserve from the repository into dir and
// returns the binary's path.
func buildServer(ctx context.Context, dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "podcserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/podcserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building podcserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one podcserve child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// pprof is podcserve's debug listener, which the benchmark reads the
	// server's runtime.MemStats from.
	pprof string
	// logDone closes once the child's stderr reaches EOF.
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string
}

// startServer starts podcserve on an ephemeral loopback port and returns
// once it answers /healthz and its pprof listener answers.
func startServer(ctx context.Context, bin string, client *http.Client) (*server, error) {
	pprofAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-drain", "5s", "-pprof", pprofAddr)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting podcserve: %w", err)
	}
	s := &server{cmd: cmd, pprof: "http://" + pprofAddr, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go s.readLog(stderr, addr)

	wait := time.NewTimer(30 * time.Second)
	defer wait.Stop()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.logDone:
		s.stop()
		return nil, fmt.Errorf("podcserve exited before listening: %s", s.tail())
	case <-wait.C:
		s.stop()
		return nil, fmt.Errorf("podcserve did not report its address within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/healthz", nil)
	if err != nil {
		s.stop()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("podcserve health probe: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("podcserve health probe: status %d", resp.StatusCode)
	}
	// The pprof listener starts on its own goroutine; wait until it serves.
	// The short poll keeps the wait from adding a sleep's worth of noise to
	// setup_s.
	for try := 0; ; try++ {
		if _, err := s.totalAllocMB(ctx, client); err == nil {
			return s, nil
		} else if try == 1000 {
			s.stop()
			return nil, fmt.Errorf("podcserve pprof listener: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freePort returns a loopback address no listener holds right now.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// totalAllocMB reads the server's cumulative heap allocation (MemStats
// TotalAlloc, which the debug=1 heap profile prints) in MB.
func (s *server) totalAllocMB(ctx context.Context, client *http.Client) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.pprof+"/debug/pprof/allocs?debug=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof TotalAlloc: %w", err)
			}
			return n / (1 << 20), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("pprof heap profile has no TotalAlloc line (status %d)", resp.StatusCode)
}

// readLog forwards the listening address and keeps the last log lines; it
// returns when the child closes stderr, that is, when it exits.
func (s *server) readLog(r io.Reader, addr chan<- string) {
	defer close(s.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, a, ok := strings.Cut(line, "podcserve: listening on "); ok {
			select {
			case addr <- strings.TrimSpace(a):
			default:
			}
		}
		s.mu.Lock()
		s.logTail = append(s.logTail, line)
		if len(s.logTail) > 20 {
			s.logTail = s.logTail[1:]
		}
		s.mu.Unlock()
	}
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logTail, "\n")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, lets podcserve drain, and waits for it to exit
// (killing it if the drain overruns).
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	select {
	case <-s.logDone:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.logDone
	}
	return s.cmd.Wait()
}

// scrape reads podcserve's /metrics into a map from series (name plus
// label set) to value.
func (s *server) scrape(ctx context.Context, client *http.Client) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(promSample)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// promSample is one /metrics scrape.
type promSample map[string]float64

// sum adds the series of the named metric whose label set contains label
// (every series of the metric when label is empty).
func (p promSample) sum(name, label string) float64 {
	total := 0.0
	for series, v := range p {
		base, labels, _ := strings.Cut(series, "{")
		if base == name && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

// serverBinary returns the configured podcserve binary, building it into
// the run's output directory when none was given.
func serverBinary(ctx context.Context, cfg Config) (string, error) {
	if cfg.Server != "" {
		if _, err := os.Stat(cfg.Server); err != nil {
			return "", fmt.Errorf("podcserve binary: %w", err)
		}
		return cfg.Server, nil
	}
	return buildServer(ctx, cfg.Out)
}
