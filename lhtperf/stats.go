package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted, interpolating
// linearly between the two nearest ranks (the "type 7" estimator of R and
// NumPy). An empty slice has no quantile; it reports 0.
func quantile(sorted []float64, q float64) float64 {
	switch n := len(sorted); {
	case n == 0:
		return 0
	case n == 1 || q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	h := q * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies collects one op class's per-operation latencies in
// microseconds.
type latencies []float64

// summary is a latency distribution reduced to what the report prints.
type summary struct {
	n        int
	p50, p99 float64
}

func (l latencies) summarize() summary {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return summary{n: len(s), p50: quantile(s, 0.5), p99: quantile(s, 0.99)}
}

// procSample is the process- and host-level counters read at the edges of
// a measured window; a window's cost is the difference of two samples.
type procSample struct {
	cpu        time.Duration // user + system CPU of this process
	allocs     uint64        // heap allocations (objects)
	allocBytes uint64        // heap allocations (bytes)
	gcCycles   uint64
	gcCPU      float64 // seconds of CPU the runtime spent on GC
	totalCPU   float64 // seconds of CPU the runtime accounts for
	stealTicks uint64  // host /proc/stat steal ticks
	allTicks   uint64  // host /proc/stat ticks of every state
}

// sampleProc reads the current process and host counters.
func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	rs := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rs)
	s.allocs = rs[0].Value.Uint64()
	s.allocBytes = rs[1].Value.Uint64()
	s.gcCycles = rs[2].Value.Uint64()
	s.gcCPU = rs[3].Value.Float64()
	s.totalCPU = rs[4].Value.Float64()
	s.stealTicks, s.allTicks = readSteal()
	return s
}

// procDelta is the cost of one measured window.
type procDelta struct {
	cpu                  time.Duration
	allocs, allocBytes   uint64
	gcCycles             uint64
	gcCPU, totalCPU      float64
	stealTicks, allTicks uint64
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		cpu:        b.cpu - a.cpu,
		allocs:     b.allocs - a.allocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
		gcCPU:      b.gcCPU - a.gcCPU,
		totalCPU:   b.totalCPU - a.totalCPU,
		stealTicks: b.stealTicks - a.stealTicks,
		allTicks:   b.allTicks - a.allTicks,
	}
}

func (d *procDelta) add(o procDelta) {
	d.cpu += o.cpu
	d.allocs += o.allocs
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.totalCPU += o.totalCPU
	d.stealTicks += o.stealTicks
	d.allTicks += o.allTicks
}

// readSteal returns the host's cumulative steal ticks and all ticks from
// the aggregate line of /proc/stat; zeros where it is unreadable.
func readSteal() (steal, all uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += v
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssBytes returns the process's current resident set size, read from
// /proc/self/statm; 0 where it is unreadable.
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// rssPeak samples resident memory every few milliseconds between start
// and stop and keeps the highest reading. Sampling, unlike the kernel's
// high-water mark, can be confined to one stretch of the process's life,
// so set-ups measured only for their time never leak into the figure.
type rssPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan struct{})}
	p.observe()
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.observe()
			}
		}
	}()
	return p
}

func (p *rssPeak) observe() {
	v := rssBytes()
	for {
		old := p.peak.Load()
		if v <= old || p.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (p *rssPeak) finish() uint64 {
	close(p.stop)
	<-p.done
	p.observe()
	return p.peak.Load()
}

// settle collects the set-up's garbage so that it is not charged to the
// measured window that follows.
func settle() { runtime.GC() }
