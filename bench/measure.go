package bench

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile reads the p-th percentile (nearest rank) of the samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// median is the middle sample (mean of the middle two for even counts).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a CPU-time and peak-memory reading of one process.
type usage struct {
	cpu     time.Duration
	peakRSS float64 // MB
}

// selfCPU reads the benchmark process's own CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procUsage reads a process's CPU time and peak RSS (VmHWM) from /proc:
// podcserve's while it runs, and the benchmark's own peak.
func procUsage(pid int) (usage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return usage{}, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	u := usage{cpu: time.Duration(utime+stime) * time.Second / clockTicks}

	st, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return usage{}, err
	}
	defer st.Close()
	sc := bufio.NewScanner(st)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return usage{}, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			u.peakRSS = kb / 1024
			return u, nil
		}
	}
	return usage{}, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// totalAllocMB is the process's cumulative heap allocation in MB.
func totalAllocMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc) / (1 << 20)
}

// opMeter measures in-process operations: wall time, CPU time,
// allocation and peak RSS of each, leaving out the benchmark's own work
// between them (checking the answers).  Every operation starts after a
// garbage collection that also returns the freed memory to the kernel, so
// neither the previous operation's garbage nor the checker's is collected
// on its time, and with the kernel's peak-RSS mark reset, so each
// operation's peak is its own rather than the heap an earlier one left
// mapped.
type opMeter struct {
	wall, cpu time.Duration
	// Per-operation samples.
	cpuMS, allocMB, peakMB []float64

	start  time.Time
	cpu0   time.Duration
	alloc0 float64
}

func (m *opMeter) begin() error {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	cpu, err := selfCPU()
	if err != nil {
		return err
	}
	m.cpu0, m.alloc0 = cpu, totalAllocMB()
	m.start = time.Now()
	return nil
}

// end closes the operation and returns its wall time.
func (m *opMeter) end() (time.Duration, error) {
	elapsed := time.Since(m.start)
	cpu, err := selfCPU()
	if err != nil {
		return 0, err
	}
	peak, err := procUsage(os.Getpid())
	if err != nil {
		return 0, err
	}
	m.wall += elapsed
	m.cpu += cpu - m.cpu0
	m.cpuMS = append(m.cpuMS, ms(cpu-m.cpu0))
	m.allocMB = append(m.allocMB, totalAllocMB()-m.alloc0)
	m.peakMB = append(m.peakMB, peak.peakRSS)
	return elapsed, nil
}

// fill copies the totals and the per-operation figures into o: the median
// allocation, and the mean peak RSS.  An operation's peak depends on where
// garbage collections fall among its concurrent work, and varies by up to
// a quarter from one sweep to the next; over the three to five sweeps of a
// run the mean's worst run-to-run spread was lower than the median's
// (README.md, Calibration).
func (m *opMeter) fill(o *outcome) {
	o.wall, o.cpu = m.wall, m.cpu
	o.allocPerOp, o.peakRSS = median(m.allocMB), mean(m.peakMB)
	o.note("op_cpu_ms", m.cpuMS)
	o.note("op_alloc_mb", m.allocMB)
	o.note("op_peak_rss_mb", m.peakMB)
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) of this process
// from its current RSS (Linux: "5" written to /proc/self/clear_refs).
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return f.Close()
}
