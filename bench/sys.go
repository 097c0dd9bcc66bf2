package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuNs returns the process's user+system CPU time so far.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MiB, 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// stealNs returns the time the hypervisor has kept this machine's CPUs
// from it so far, summed over CPUs (/proc/stat, in steps of 10 ms); 0
// where /proc is unavailable.
func stealNs() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return ticks * 10_000_000
}

// window is one measured stretch: its wall time, the process's CPU time
// over it, and what the hypervisor stole from the machine meanwhile.
type window struct {
	Ns      int64 `json:"ns"`
	CPUNs   int64 `json:"cpu_ns"`
	StealNs int64 `json:"steal_ns"`
}

// stopwatch measures a window.
type stopwatch struct {
	t0         time.Time
	cpu, steal int64
}

func startWindow() stopwatch { return stopwatch{time.Now(), cpuNs(), stealNs()} }

func (s stopwatch) stop() window {
	return window{Ns: time.Since(s.t0).Nanoseconds(), CPUNs: cpuNs() - s.cpu, StealNs: stealNs() - s.steal}
}

// restartPeakRSS restarts the resident-set high-water mark from the
// current resident set, so peakRSSMB then reads the peak since this call.
// Where the mark cannot be reset it stays the whole process's.
func restartPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported or read-only /proc: keep the process-wide mark
}

// memCounters accumulates runtime.MemStats deltas over the measured
// segments only, so the benchmark's own between-round allocations stay
// out of the per-op figures. A copy is a snapshot.
type memCounters struct {
	mallocs, bytes, gcCycles, pauseNs uint64
	ns                                int64  // total length of the measured segments
	heapLive                          uint64 // live heap when the last segment ended
	began                             time.Time
	before                            runtime.MemStats
}

// begin snapshots the counters at the start of a measured segment.
func (m *memCounters) begin() {
	runtime.ReadMemStats(&m.before)
	m.began = time.Now()
}

// end adds the deltas since begin.
func (m *memCounters) end() {
	m.ns += time.Since(m.began).Nanoseconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.gcCycles += uint64(after.NumGC - m.before.NumGC)
	m.pauseNs += after.PauseTotalNs - m.before.PauseTotalNs
	m.heapLive = after.HeapAlloc
}
