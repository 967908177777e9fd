// Command lhtperf is the repository's benchmark: seeded, closed-loop
// index workloads through the public lht facade, over a 4-node loopback
// tcpnet cluster or the in-process dht.Local substrate, with every answer
// checked.
//
//	lhtperf --workload lookup|mixed|embedded --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the same schedule untraced and then traced, and
// reports the per-layer metrics of the traced run together with the
// tracing overhead. The human-readable report goes to standard output;
// its last line is one JSON object with the keys correct, attempted,
// failed and metrics. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"lht/internal/dht"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lhtperf:", err)
		os.Exit(1)
	}
}

// errWrong reports a run that completed but returned wrong answers; its
// result line is printed with correct=false.
var errWrong = errors.New("wrong answers")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lhtperf", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: lookup, mixed or embedded")
	seed := fs.Int64("seed", 1, "seed the data and schedule are drawn from")
	seconds := fs.Int("seconds", 10, "sizes the schedule: about this many seconds of ops on a 2-vCPU host")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := specByName(*workload)
	if s.name == "" {
		return fmt.Errorf("unknown workload %q (have lookup, mixed, embedded)", *workload)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	res, err := s.execute(context.Background(), *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	res.print(out)
	if !res.correct() {
		return errWrong
	}
	return nil
}

// scheduleLen returns how many ops one replay of the schedule holds and
// how many times a run replays it.
func (s spec) scheduleLen(seconds int) (ops, reps int) {
	ops = int(float64(seconds) * s.scheduleRate)
	return ops, max(1, int(math.Round(s.totalRate/s.scheduleRate)))
}

// result is one benchmark run.
type result struct {
	spec    spec
	seed    int64
	ops     int
	reps    int
	plain   *phase // untraced
	traced  *phase // nil unless --trace 1
	checks  []string
	cpuName string
}

func (s spec) execute(ctx context.Context, seed int64, seconds int, traced bool) (*result, error) {
	nOps, reps := s.scheduleLen(seconds)
	return s.executeN(ctx, seed, nOps, reps, traced)
}

// executeN runs reps replays of an nOps schedule drawn from seed,
// untraced and, with traced, traced as well.
func (s spec) executeN(ctx context.Context, seed int64, nOps, reps int, traced bool) (*result, error) {
	d, err := s.build(seed, nOps)
	if err != nil {
		return nil, err
	}
	r := &result{spec: s, seed: seed, ops: nOps, reps: reps, cpuName: cpuModel()}
	setups := s.setups
	if traced {
		setups = 0 // set-up time is an end-to-end metric of the untraced run
	}
	if r.plain, err = s.measure(ctx, d, reps, setups, false); err != nil {
		return nil, err
	}
	if traced {
		if r.traced, err = s.measure(ctx, d, reps, 0, true); err != nil {
			return nil, err
		}
		r.compare()
	}
	return r, nil
}

// lostRoundLookups bounds the DHT-lookups one lost CAS round, or one
// cache miss it causes, adds: a re-read probe over at most log2(D+1)
// levels of the default depth D = 20, plus the retried commit.
const lostRoundLookups = 8

// compare checks that tracing changed no code path. The traced run must
// make the same DHT-lookups and send the same routed request frames as
// the untraced one, and the frames its wrappers saw must be the ones the
// servers counted. A read-only, uncached schedule makes the counts exact.
// With two writers, how their ops interleave decides how many CAS rounds
// they lose, and each lost round (and each cache miss it causes) costs
// up to lostRoundLookups more lookups; frames, which also follow the
// replica a read lands on, may in addition differ by a few per thousand.
func (r *result) compare() {
	a, b := r.plain, r.traced
	slack := lostRoundLookups * (a.cost.writerRetries + b.cost.writerRetries +
		abs(a.cost.misses-b.cost.misses) + abs(a.cost.stale-b.cost.stale))
	if d := abs(a.cost.lookups - b.cost.lookups); d > slack {
		r.checks = append(r.checks, fmt.Sprintf("dht lookups differ by %d (allowed %d): untraced %+v, traced %+v",
			d, slack, a.cost, b.cost))
	}
	// A lookup is at most one frame per replica.
	frameSlack := clusterReplicas * slack
	if r.spec.insertFrac+r.spec.deleteFrac > 0 {
		frameSlack += max(a.routed, b.routed) / 200
	}
	if d := abs(a.routed - b.routed); d > frameSlack {
		r.checks = append(r.checks, fmt.Sprintf("routed request frames differ by %d (allowed %d): untraced %d, traced %d",
			d, frameSlack, a.routed, b.routed))
	}
	if b.cost.fallback != 0 {
		r.checks = append(r.checks, fmt.Sprintf("traced run emulated %d conditional writes", b.cost.fallback))
	}
	if r.spec.cluster && !b.wire.broken {
		seen := b.wire.frames() - b.wire.sent[dht.OpWrite] - b.wire.sent[dht.OpWriteIf] - b.wire.sent[dht.OpPing]
		if seen != b.routed {
			r.checks = append(r.checks, fmt.Sprintf("wrappers saw %d routed request frames, servers counted %d", seen, b.routed))
		}
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func (r *result) correct() bool {
	p := r.plain
	ok := len(p.wrong) == 0
	if r.traced != nil {
		ok = ok && len(r.traced.wrong) == 0 && len(r.checks) == 0
	}
	return ok
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd returns the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd() map[string]metric {
	ops := float64(p.ops())
	return map[string]metric{
		"setup_s":            {median(p.setups), "s"},
		"get_p50_us":         {p.segMedian(func(s segment) float64 { return s.getP50 }), "us"},
		"cpu_us_per_op":      {p.segMedian(func(s segment) float64 { return s.cpuPerOp }), "us"},
		"allocs_per_op":      {ratio(float64(p.proc.allocs), ops), "count"},
		"alloc_bytes_per_op": {ratio(float64(p.proc.allocBytes), ops), "B"},
		"dht_lookups_per_op": {ratio(float64(p.cost.lookups), ops), "count"},
		"mem_peak_mb":        {float64(p.memPeak) / (1 << 20), "MB"},
	}
}

// segMedian returns the median of f over the phase's segments.
func (p *phase) segMedian(f func(segment) float64) float64 {
	xs := make([]float64, len(p.segs))
	for i, s := range p.segs {
		xs[i] = f(s)
	}
	return median(xs)
}

// perLayer returns the per-layer metrics of a traced phase, plus the
// figures the report prints for layers the workload may not exercise
// (those are nil-valued when absent).
func (r *result) perLayer() (js map[string]metric, extra map[string]*metric) {
	p, a := r.traced, r.plain
	ops := float64(p.ops())
	gets, ins, dels, rngs := float64(p.issued[opGet]), float64(p.issued[opInsert]), float64(p.issued[opDelete]), float64(p.issued[opRange])
	sub := &p.sub
	measured := []int{classGet, classInsert, classDelete, classRange}
	setup, putBatch := []int{classSetup}, []int{callPutBatch}
	getCalls := float64(sum(&sub.calls, measured, []int{callGet}))
	getNanos := float64(sum(&sub.nanos, measured, []int{callGet}))
	rttGet := 0.0
	if !p.wire.broken {
		rttGet = float64(p.wire.rttNanos[dht.OpGet])
	}
	frames := float64(p.wire.frames())
	cpuA := ratio(a.proc.cpu.Seconds(), float64(a.ops()))
	cpuB := ratio(p.proc.cpu.Seconds(), ops)
	wireOK := !p.wire.broken
	wireIf := func(v float64) float64 {
		if wireOK {
			return v
		}
		return 0
	}
	js = map[string]metric{
		"lht.self_us_per_op":           {ratio(float64(p.selfNanos)/1e3, ops), "us"},
		"lht.gets_per_get":             {ratio(float64(sum(&sub.calls, []int{classGet}, []int{callGet})), gets), "count"},
		"lht.cache_hit_ratio":          {ratio(float64(p.cost.hits), float64(p.cost.hits+p.cost.misses)), "ratio"},
		"lht.calls_per_insert":         {ratio(float64(sum(&sub.calls, []int{classInsert}, nil)), ins), "count"},
		"lht.cas_conflicts_per_write":  {ratio(float64(p.cost.casConflicts), ins+dels), "count"},
		"lht.splits_per_kinsert":       {ratio(1000*float64(p.cost.splits), ins), "count"},
		"lht.merges_per_kdelete":       {ratio(1000*float64(p.cost.merges), dels), "count"},
		"lht.moved_records_per_insert": {ratio(float64(p.cost.moved), ins), "count"},
		"lht.maint_lookups_per_insert": {ratio(float64(p.cost.maint), ins), "count"},
		"lht.leaves_per_range":         {ratio(float64(sum(&sub.keys, []int{classRange}, []int{callGet, callGetBatch})), rngs), "count"},
		"lht.leaves":                   {float64(p.leaves), "count"},
		"dht.retries_per_kop":          {ratio(1000*float64(p.cost.retries), ops), "count"},
		"substrate.call_us":            {ratio(float64(sum(&sub.nanos, measured, nil))/1e3, float64(sum(&sub.calls, measured, nil))), "us"},
		"substrate.get_us":             {ratio(getNanos/1e3, getCalls), "us"},
		"substrate.get_self_us":        {ratio((getNanos-rttGet)/1e3, getCalls), "us"},
		"substrate.putbatch_us":        {ratio(float64(sum(&p.setupSub.nanos, setup, putBatch))/1e3, float64(sum(&p.setupSub.calls, setup, putBatch))), "us"},
		"tcpnet.frames_per_op":         {wireIf(ratio(frames, ops)), "count"},
		"tcpnet.wire_bytes_per_op":     {wireIf(ratio(float64(p.wire.bytes), ops)), "B"},
		"tcpnet.syscalls_per_frame":    {wireIf(ratio(float64(p.wire.calls), 2*frames)), "count"},
		"runtime.gc_cpu_frac":          {ratio(p.proc.gcCPU, p.proc.totalCPU), "ratio"},
		"runtime.gc_per_kop":           {ratio(1000*float64(p.proc.gcCycles), ops), "count"},
		"host.steal_frac":              {ratio(float64(p.proc.stealTicks), float64(p.proc.allTicks)), "ratio"},
		"share.zipf_hottest":           {p.hotShare, "ratio"},
		"share.split_inserts":          {ratio(float64(p.cost.splits), ins), "ratio"},
		"trace.cpu_overhead_frac":      {ratio(cpuB-cpuA, cpuA), "ratio"},
	}

	extra = map[string]*metric{}
	mean := func(c *substrateCounts, classes, kinds []int) *metric {
		n := sum(&c.calls, classes, kinds)
		if n == 0 {
			return nil
		}
		return &metric{float64(sum(&c.nanos, classes, kinds)) / 1e3 / float64(n), "us"}
	}
	wireMean := func(ns, n []int64, ops ...dht.OpKind) *metric {
		var tn, tc int64
		for _, o := range ops {
			tn += ns[o]
			tc += n[o]
		}
		if tc == 0 || !wireOK {
			return nil
		}
		return &metric{float64(tn) / 1e3 / float64(tc), "us"}
	}
	conds := []int{callPutIf, callCreateIf, callRemoveIf}
	if r.spec.cluster {
		extra["tcpnet.get_us"] = mean(sub, measured, []int{callGet})
		if extra["tcpnet.get_us"] != nil && wireOK {
			m := js["substrate.get_self_us"]
			extra["tcpnet.get_self_us"] = &m
		}
		extra["tcpnet.cond_us"] = mean(sub, measured, conds)
		extra["tcpnet.getbatch_us"] = mean(sub, measured, []int{callGetBatch})
		extra["tcpnet.putbatch_us"] = mean(&p.setupSub, setup, putBatch)
		var allN, allNs int64
		for i := 0; i < 256; i++ {
			allN += p.wire.rttN[i]
			allNs += p.wire.rttNanos[i]
		}
		if allN > 0 && wireOK {
			extra["tcpnet.wire_rtt_us"] = &metric{float64(allNs) / 1e3 / float64(allN), "us"}
		}
		svcN, svcNs := p.wire.svcN[:], p.wire.svcNanos[:]
		extra["server.service_us.get"] = wireMean(svcNs, svcN, dht.OpGet)
		extra["server.service_us.cond"] = wireMean(svcNs, svcN, dht.OpPutIf, dht.OpCreateIf, dht.OpRemoveIf, dht.OpWriteIf)
		extra["server.service_us.putnewer"] = wireMean(svcNs, svcN, dht.OpPutNewer)
	} else {
		extra["dht.local_us_per_call"] = mean(sub, measured, nil)
	}
	for k, v := range extra {
		if v == nil {
			delete(extra, k)
		}
	}
	return js, extra
}

// perLayerNames lists every per-layer metric the report prints, in
// order, including the ones that exist only on some workloads.
var perLayerNames = []string{
	"lht.self_us_per_op", "lht.gets_per_get", "lht.cache_hit_ratio", "lht.calls_per_insert",
	"lht.cas_conflicts_per_write", "lht.splits_per_kinsert", "lht.merges_per_kdelete",
	"lht.moved_records_per_insert", "lht.maint_lookups_per_insert", "lht.leaves_per_range", "lht.leaves",
	"dht.retries_per_kop", "dht.local_us_per_call",
	"substrate.call_us", "substrate.get_us", "substrate.get_self_us", "substrate.putbatch_us",
	"tcpnet.get_us", "tcpnet.get_self_us", "tcpnet.cond_us", "tcpnet.getbatch_us", "tcpnet.putbatch_us",
	"tcpnet.frames_per_op", "tcpnet.wire_bytes_per_op", "tcpnet.syscalls_per_frame", "tcpnet.wire_rtt_us",
	"server.service_us.get", "server.service_us.cond", "server.service_us.putnewer",
	"runtime.gc_cpu_frac", "runtime.gc_per_kop", "host.steal_frac",
	"share.zipf_hottest", "share.split_inserts", "trace.cpu_overhead_frac",
}

var endToEndNames = []string{
	"setup_s", "get_p50_us", "cpu_us_per_op", "allocs_per_op", "alloc_bytes_per_op",
	"dht_lookups_per_op", "mem_peak_mb",
}

func (r *result) print(out io.Writer) {
	s, p := r.spec, r.plain
	fmt.Fprintf(out, "lhtperf: workload=%s seed=%d ops=%d reps=%d clients=%d\n", s.name, r.seed, r.ops, r.reps, clients)
	fmt.Fprintf(out, "provenance: go=%s GOMAXPROCS=%d nproc=%d cpu=%q seed=%d host.steal_frac=%.4f\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), r.cpuName, r.seed,
		ratio(float64(p.proc.stealTicks), float64(p.proc.allTicks)))
	fmt.Fprintf(out, "shares: cache_hit=%.4f zipf_hottest=%.4f split_inserts=%.4f\n",
		ratio(float64(p.cost.hits), float64(p.cost.hits+p.cost.misses)), p.hotShare,
		ratio(float64(p.cost.splits), float64(p.issued[opInsert])))
	r.printPhase(out, "end-to-end (untraced)", p)
	metrics := p.endToEnd()
	if r.traced != nil {
		r.printPhase(out, "end-to-end (traced)", r.traced)
		a, b := p.endToEnd(), r.traced.endToEnd()
		fmt.Fprintln(out, "tracing overhead (traced - untraced):")
		for _, k := range []string{"get_p50_us", "cpu_us_per_op", "allocs_per_op", "dht_lookups_per_op"} {
			fmt.Fprintf(out, "  %-28s %+12.4f %s (%+.1f%%)\n", k, b[k].Value-a[k].Value, a[k].Unit,
				100*ratio(b[k].Value-a[k].Value, a[k].Value))
		}
		js, extra := r.perLayer()
		metrics = js
		fmt.Fprintln(out, "per-layer (traced):")
		for _, k := range perLayerNames {
			if m, ok := js[k]; ok {
				fmt.Fprintf(out, "  %-28s %12.4f %s\n", k, m.Value, m.Unit)
			} else if m := extra[k]; m != nil {
				fmt.Fprintf(out, "  %-28s %12.4f %s\n", k, m.Value, m.Unit)
			} else {
				fmt.Fprintf(out, "  %-28s %12s\n", k, "n/a")
			}
		}
		if r.traced.wire.broken {
			fmt.Fprintln(out, "  wire metrics unavailable: a connection stream did not parse as frames, or a response matched no request")
		}
		fmt.Fprintf(out, "trace check: dht_lookups_per_op untraced %.4f traced %.4f; routed frames/op untraced %.4f traced %.4f\n",
			ratio(float64(p.cost.lookups), float64(p.ops())), ratio(float64(r.traced.cost.lookups), float64(r.traced.ops())),
			ratio(float64(p.routed), float64(p.ops())), ratio(float64(r.traced.routed), float64(r.traced.ops())))
		for _, c := range r.checks {
			fmt.Fprintln(out, "check failed:", c)
		}
	}
	for _, ph := range []*phase{p, r.traced} {
		if ph == nil {
			continue
		}
		for _, err := range ph.wrong {
			fmt.Fprintln(out, "wrong answer:", err)
		}
	}

	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: p.ops(), Failed: p.failed, Metrics: metrics}
	if r.traced != nil {
		line.Attempted += r.traced.ops()
		line.Failed += r.traced.failed
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a map of finite numbers always marshals
	}
	fmt.Fprintln(out, string(b))
}

func (r *result) printPhase(out io.Writer, title string, p *phase) {
	fmt.Fprintf(out, "%s: %d ops in %.3f s (%.0f ops/s, context only)\n", title, p.ops(), p.elapsed.Seconds(),
		ratio(float64(p.ops()), p.elapsed.Seconds()))
	e := p.endToEnd()
	for _, k := range endToEndNames {
		m := e[k]
		note := ""
		switch k {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(p.setups))
		case "get_p50_us":
			ls := p.lat[opGet].summarize()
			note = fmt.Sprintf("n=%d, p99 %.1f us", ls.n, ls.p99)
		}
		fmt.Fprintf(out, "  %-28s %12.4f %-6s %s\n", k, m.Value, m.Unit, note)
	}
	for _, k := range []int{opInsert, opDelete, opRange} {
		ls := p.lat[k].summarize()
		name := opNames[k] + "_p50_us"
		if ls.n == 0 {
			fmt.Fprintf(out, "  %-28s %12s\n", name, "n/a")
			continue
		}
		fmt.Fprintf(out, "  %-28s %12.4f %-6s n=%d, p99 %.1f us\n", name, ls.p50, "us", ls.n, ls.p99)
	}
	fmt.Fprintf(out, "  %-28s %12.6f %-6s %d of %d ops\n", "failed_frac", ratio(float64(p.failed), float64(p.ops())), "ratio", p.failed, p.ops())
	if n := p.issued[opRange]; n > 0 {
		fmt.Fprintf(out, "  note: %d of %d range answers were not in key order (the range API returns a set)\n", p.unsorted, n)
	}
}
