package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hardharvest/internal/sim"
)

// Host-side measurements: process CPU time and peak RSS, the Go runtime's
// allocation and collection counters, and the host fingerprint.

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuStat is the first line of /proc/stat: time in jiffies summed over all
// CPUs, and the part of it the hypervisor gave to other guests (steal).
type cpuStat struct{ total, steal uint64 }

// readCPUStat returns a zero cpuStat when /proc/stat cannot be read, which
// makes every stealShare zero.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		if i >= 8 { // guest and guest_nice are already counted in user and nice
			break
		}
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealShare is the share of all CPUs' time between a and b that the
// hypervisor took from this machine.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// maxRSSMB reports the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeDelta is the Go runtime's work during one untraced repetition.
type runtimeDelta struct {
	AllocMB   float64 `json:"alloc_mb"`
	Mallocs   float64 `json:"mallocs"`
	GCCPU     float64 `json:"gc_cpu_s"`
	HeapMaxMB float64 `json:"heap_max_mb"`
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

// runtimeProbe reads the runtime counters at both ends of a repetition and,
// in traced runs, samples the live heap every heapSampleEvery in between.
type runtimeProbe struct {
	before  []metrics.Sample
	stopCh  chan struct{}
	wg      sync.WaitGroup
	heapMax uint64
}

const heapSampleEvery = 5 * time.Millisecond

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// startRuntimeProbe starts reading the counters. Without sampleHeap no
// goroutine is started, so the probe adds only two counter reads to the
// timed repetition; the heap high-water is then the live heap at the end.
func startRuntimeProbe(sampleHeap bool) *runtimeProbe {
	p := &runtimeProbe{before: readRuntime(), stopCh: make(chan struct{})}
	if !sampleHeap {
		return p
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > p.heapMax {
				p.heapMax = v
			}
			select {
			case <-p.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *runtimeProbe) stop() runtimeDelta {
	close(p.stopCh)
	p.wg.Wait()
	after := readRuntime()
	d := func(i int) float64 { return sampleValue(after[i]) - sampleValue(p.before[i]) }
	heapMax := max(p.heapMax, after[3].Value.Uint64())
	return runtimeDelta{
		AllocMB:   d(0) / (1 << 20),
		Mallocs:   d(1),
		GCCPU:     d(2),
		HeapMaxMB: float64(heapMax) / (1 << 20),
	}
}

// hostProbeRounds sizes hostProbe to a few milliseconds on a current x86
// core.
const hostProbeRounds = 1 << 21

// hostProbe times a fixed single-threaded kernel (xorshift steps indexing a
// 16 KiB table, so it stays in the core's L1) that no change to the
// simulator can move. Its samples, taken next to the setup samples, show
// how fast the host itself ran during a run: when two runs of the same
// code differ, a matching difference here puts the cause outside the
// program.
func hostProbe() float64 {
	var table [2048]uint64
	x := uint64(0x9e3779b97f4a7c15)
	t0 := time.Now()
	for i := 0; i < hostProbeRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&2047] += x
	}
	d := time.Since(t0).Seconds()
	probeSink += table[x&2047]
	return d
}

// probeSink keeps hostProbe's work observable so it is not optimized away.
var probeSink uint64

// hostInfo identifies the machine a result was measured on; numbers from
// different fingerprints are not comparable.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Workers    int    `json:"workers"`
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Workers: sim.NewShardGroup(0).Workers()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}
