package main

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"lht"
)

// clients is the number of closed-loop client goroutines sharing one
// index handle.
const clients = 2

func init() {
	// tcpnet ships index buckets as gob values. Registering the type with
	// encoding/gob directly, not through lht.RegisterGobTypes, keeps the
	// benchmark unchanged when the index moves off gob and drops that
	// helper.
	gob.Register(&lht.Bucket{})
}

// tracer holds the per-layer counters of a traced phase.
type tracer struct {
	sub  substrateStats
	wire wireStats
}

// instance is one set-up index and what it runs over.
type instance struct {
	ix *lht.Index
	cl *cluster
}

func (in *instance) close() error {
	if in.cl != nil {
		return in.cl.close()
	}
	return nil
}

// routed returns the request frames the cluster's servers have counted
// themselves: every routed request charges its server one lookup per key
// it carries, and each batch request is one frame for all its keys. The
// free Write and WriteIf requests and pings are not counted.
func (in *instance) routed() int64 {
	if in.cl == nil {
		return 0
	}
	var n int64
	for _, s := range in.cl.srvs {
		m := s.Metrics()
		n += m.Lookup.Total - m.Batch.Keys + m.Batch.Ops
	}
	return n
}

// setUp builds the substrate, bulk-loads the data and warms up. With tr
// non-nil the substrate and every connection are wrapped for tracing.
func (s spec) setUp(ctx context.Context, d *dataset, tr *tracer) (*instance, error) {
	in := &instance{}
	var sub lht.DHT
	if s.cluster {
		var ws *wireStats
		if tr != nil {
			ws = &tr.wire
		}
		cl, err := bootCluster(ctx, ws)
		if err != nil {
			return nil, err
		}
		in.cl = cl
		sub = cl.client
	} else {
		sub = lht.NewLocalDHT()
	}
	if tr != nil {
		w, err := wrapSubstrate(sub, &tr.sub)
		if err != nil {
			return nil, errors.Join(err, in.close())
		}
		sub = w
	}
	opts := []lht.Option{lht.WithPolicy(lht.DefaultPolicy())}
	if s.cache {
		opts = append(opts, lht.WithLeafCache(0))
	}
	ix, err := lht.New(sub, opts...)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("new index: %w", err), in.close())
	}
	in.ix = ix
	recs := append([]lht.Record(nil), d.recs...)
	if _, err := ix.BulkLoadContext(ctx, recs); err != nil {
		return nil, errors.Join(fmt.Errorf("bulk load: %w", err), in.close())
	}
	if err := in.warmUp(ctx, d); err != nil {
		return nil, errors.Join(err, in.close())
	}
	return in, nil
}

// warmUp reads every warm-up key once, spread over the clients, and
// checks each answer.
func (in *instance) warmUp(ctx context.Context, d *dataset) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(d.warm); i += clients {
				k := d.warm[i]
				r, _, err := in.ix.GetContext(ctx, k)
				if err != nil {
					errs[c] = fmt.Errorf("warm-up get %v: %w", k, err)
					return
				}
				if r.Key != k || string(r.Value) != string(d.keys[k].val) {
					errs[c] = fmt.Errorf("warm-up get %v: wrong answer", k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// costs is the subset of an index Snapshot the report uses.
type costs struct {
	lookups, splits, merges, moved, maint int64
	hits, misses, stale                   int64
	retries                               int64
	casConflicts, writerRetries, fallback int64
}

func costsOf(s lht.Snapshot) costs {
	return costs{
		lookups: s.Lookup.Total, splits: s.Lookup.Splits, merges: s.Lookup.Merges,
		moved: s.Lookup.MovedRecords, maint: s.Lookup.Maintenance,
		hits: s.Cache.Hits, misses: s.Cache.Misses, stale: s.Cache.Stale,
		retries:      s.Retry.Retries,
		casConflicts: s.Write.CASConflicts, writerRetries: s.Write.WriterRetries,
		fallback: s.Write.CASFallbacks,
	}
}

func (a costs) to(b costs) costs {
	return costs{
		lookups: b.lookups - a.lookups, splits: b.splits - a.splits, merges: b.merges - a.merges,
		moved: b.moved - a.moved, maint: b.maint - a.maint,
		hits: b.hits - a.hits, misses: b.misses - a.misses, stale: b.stale - a.stale,
		retries:      b.retries - a.retries,
		casConflicts: b.casConflicts - a.casConflicts, writerRetries: b.writerRetries - a.writerRetries,
		fallback: b.fallback - a.fallback,
	}
}

func (a *costs) add(o costs) {
	a.lookups += o.lookups
	a.splits += o.splits
	a.merges += o.merges
	a.moved += o.moved
	a.maint += o.maint
	a.hits += o.hits
	a.misses += o.misses
	a.stale += o.stale
	a.retries += o.retries
	a.casConflicts += o.casConflicts
	a.writerRetries += o.writerRetries
	a.fallback += o.fallback
}

// phase is everything one measured phase (untraced or traced) yields.
type phase struct {
	lat       [numOps]latencies
	issued    [numOps]int
	failed    int
	wrong     []error
	selfNanos int64 // traced: index-op time not covered by substrate calls
	elapsed   time.Duration
	proc      procDelta
	cost      costs
	sub       substrateCounts
	wire      wireCounts
	setups    []float64 // seconds
	memPeak   uint64
	leaves    int
	hotShare  float64
	setupSub  substrateCounts // traced: every substrate call, set-up included
	unsorted  int             // range answers not in key order
	routed    int64           // cluster: request frames the servers counted

	segsPerReplay int
	segs          []segment
}

func (p *phase) ops() int {
	n := 0
	for _, c := range p.issued {
		n += c
	}
	return n
}

func (p *phase) fail(err error) {
	if len(p.wrong) < 10 {
		p.wrong = append(p.wrong, err)
	}
}

// segment is one stretch of a replay, measured on its own.
type segment struct {
	cpuPerOp float64 // us
	getP50   float64 // us
}

// clientLog is one client goroutine's record of the ops it ran.
type clientLog struct {
	lat       [numOps]latencies
	issued    [numOps]int
	failed    int
	wrong     []error
	selfNanos int64
	ranges    []rangeAnswer
	insOK     int
	delOK     int
}

type rangeAnswer struct {
	o    op
	recs []lht.Record
}

// measure runs one phase: reps x (set-up, replay, checks), then the
// remaining timing-only set-ups.
func (s spec) measure(ctx context.Context, d *dataset, reps, setups int, traced bool) (*phase, error) {
	p := &phase{hotShare: d.hotShare, segsPerReplay: s.segments}
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	settle()
	rss := startRSSPeak()
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		in, err := s.setUp(ctx, d, tr)
		if err != nil {
			rss.finish()
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		err = p.replay(ctx, in, d, tr)
		if err == nil {
			err = p.verify(in)
		}
		if cerr := in.close(); err == nil && cerr != nil {
			err = fmt.Errorf("shut down: %w", cerr)
		}
		if err != nil {
			rss.finish()
			return nil, err
		}
	}
	p.memPeak = rss.finish()
	if tr != nil {
		p.setupSub = tr.sub.snapshot()
	}
	for len(p.setups) < setups {
		t0 := time.Now()
		in, err := s.setUp(ctx, d, nil)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		if err := in.close(); err != nil {
			return nil, fmt.Errorf("shut down: %w", err)
		}
	}
	return p, nil
}

// replay runs the schedule once with the closed-loop clients and adds
// the measured window's costs to p.
func (p *phase) replay(ctx context.Context, in *instance, d *dataset, tr *tracer) error {
	logs := make([]*clientLog, clients)
	for c := range logs {
		l := &clientLog{}
		var counts [numOps]int
		for i := c; i < len(d.schedule); i += clients {
			counts[d.schedule[i].kind]++
		}
		for k := range l.lat {
			l.lat[k] = make(latencies, 0, counts[k])
		}
		l.ranges = make([]rangeAnswer, 0, counts[opRange])
		logs[c] = l
	}

	settle()
	var sub0 substrateCounts
	var wire0 wireCounts
	if tr != nil {
		sub0, wire0 = tr.sub.snapshot(), tr.wire.snapshot()
	}
	c0 := costsOf(in.ix.Metrics())
	r0 := in.routed()
	// The schedule runs in segments; the clients meet at each segment's
	// end so its CPU can be read. Time metrics are medians over segments,
	// which keeps a burst of host noise from moving a whole run's figure.
	n := len(d.schedule)
	for k := 0; k < p.segsPerReplay; k++ {
		lo, hi := k*n/p.segsPerReplay, (k+1)*n/p.segsPerReplay
		var getsBefore [clients]int
		for c, l := range logs {
			getsBefore[c] = len(l.lat[opGet])
		}
		p0 := sampleProc()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				logs[c].run(ctx, in.ix, d, c, lo, hi, tr != nil)
			}(c)
		}
		wg.Wait()
		p.elapsed += time.Since(start)
		delta := p0.to(sampleProc())
		p.proc.add(delta)
		var gets latencies
		for c, l := range logs {
			gets = append(gets, l.lat[opGet][getsBefore[c]:]...)
		}
		p.segs = append(p.segs, segment{cpuPerOp: ratio(delta.cpu.Seconds()*1e6, float64(hi-lo)), getP50: gets.summarize().p50})
		p.checkRanges(d, logs)
	}
	p.cost.add(c0.to(costsOf(in.ix.Metrics())))
	p.routed += in.routed() - r0
	if tr != nil {
		p.sub.add(sub0.to(tr.sub.snapshot()))
		w := wire0.to(tr.wire.snapshot())
		p.wire = addWire(p.wire, w)
	}

	inserted, deleted := 0, 0
	for _, l := range logs {
		for k := 0; k < numOps; k++ {
			p.lat[k] = append(p.lat[k], l.lat[k]...)
			p.issued[k] += l.issued[k]
		}
		p.failed += l.failed
		p.selfNanos += l.selfNanos
		for _, err := range l.wrong {
			p.fail(err)
		}
		inserted += l.insOK
		deleted += l.delOK
	}
	if p.failed == 0 {
		n, err := in.ix.Count()
		if err != nil {
			return fmt.Errorf("count: %w", err)
		}
		if want := len(d.recs) + inserted - deleted; n != want {
			p.fail(fmt.Errorf("count %d after the run, want %d loaded + %d inserted - %d deleted",
				n, len(d.recs), inserted, deleted))
		}
	}
	return nil
}

// checkRanges checks the range answers the clients collected in the
// last segment, outside its measured window, one goroutine per client,
// and drops them.
func (p *phase) checkRanges(d *dataset, logs []*clientLog) {
	unsorted := make([]int, len(logs))
	bad := make([][]error, len(logs))
	var wg sync.WaitGroup
	for c, l := range logs {
		wg.Add(1)
		go func(c int, l *clientLog) {
			defer wg.Done()
			for _, a := range l.ranges {
				sorted, err := d.checkRange(a.o, a.recs)
				if err != nil {
					bad[c] = append(bad[c], err)
				}
				if !sorted {
					unsorted[c]++
				}
			}
			l.ranges = l.ranges[:0]
		}(c, l)
	}
	wg.Wait()
	for c := range logs {
		p.unsorted += unsorted[c]
		for _, err := range bad[c] {
			p.fail(err)
		}
	}
}

// verify checks the stored tree's invariants and records its size.
func (p *phase) verify(in *instance) error {
	if err := in.ix.CheckInvariants(); err != nil {
		p.fail(fmt.Errorf("invariants after the run: %w", err))
	}
	leaves, err := in.ix.Leaves()
	if err != nil {
		return fmt.Errorf("leaves: %w", err)
	}
	p.leaves = len(leaves)
	return nil
}

func addWire(a, b wireCounts) wireCounts {
	a.broken = a.broken || b.broken
	a.bytes += b.bytes
	a.calls += b.calls
	for i := 0; i < 256; i++ {
		a.sent[i] += b.sent[i]
		a.rttN[i] += b.rttN[i]
		a.rttNanos[i] += b.rttNanos[i]
		a.svcN[i] += b.svcN[i]
		a.svcNanos[i] += b.svcNanos[i]
	}
	return a
}

var opClass = [numOps]int{classGet, classInsert, classDelete, classRange}

// run replays client c's share of schedule ops [lo, hi) (every
// clients-th op) in a closed loop: each op is issued when the previous
// one returns.
func (l *clientLog) run(ctx context.Context, ix *lht.Index, d *dataset, c, lo, hi int, traced bool) {
	for i := lo + (c-lo%clients+clients)%clients; i < hi; i += clients {
		o := d.schedule[i]
		octx := ctx
		var sp *opSpan
		if traced {
			sp = &opSpan{class: opClass[o.kind]}
			octx = withSpan(ctx, sp)
		}
		var (
			rec  lht.Record
			recs []lht.Record
			err  error
		)
		start := time.Now()
		switch o.kind {
		case opGet:
			rec, _, err = ix.GetContext(octx, o.key)
		case opInsert:
			_, err = ix.InsertContext(octx, lht.Record{Key: o.key, Value: d.keys[o.key].val})
		case opDelete:
			_, err = ix.DeleteContext(octx, o.key)
		case opRange:
			recs, _, err = ix.RangeContext(octx, o.key, o.hi)
		}
		end := time.Now()
		l.lat[o.kind] = append(l.lat[o.kind], float64(end.Sub(start))/float64(time.Microsecond))
		l.issued[o.kind]++
		if sp != nil {
			l.selfNanos += int64(end.Sub(start) - sp.covered(start, end))
		}
		switch {
		case errors.Is(err, lht.ErrKeyNotFound):
			// Gets read, and deletes remove, only keys that are stored.
			l.wrong = append(l.wrong, fmt.Errorf("%s %v: %w", opNames[o.kind], o.key, err))
		case err != nil:
			l.failed++
		case o.kind == opGet:
			if rec.Key != o.key || string(rec.Value) != string(d.keys[o.key].val) {
				l.wrong = append(l.wrong, fmt.Errorf("get %v: wrong answer", o.key))
			}
		case o.kind == opInsert:
			l.insOK++
		case o.kind == opDelete:
			l.delOK++
		case o.kind == opRange:
			l.ranges = append(l.ranges, rangeAnswer{o: o, recs: recs})
		}
	}
}
