package lht

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/metrics"
	"lht/internal/record"
)

// ErrBadRange reports a malformed range query.
var ErrBadRange = errors.New("lht: invalid range")

// rangeCollector accumulates a range query's results and bandwidth cost.
// When the index is configured with ParallelRange, branch forwards run in
// goroutines, so the collector is mutex-guarded; latency (Steps) is
// always computed structurally from the forwarding DAG, identically in
// both modes.
type rangeCollector struct {
	mu      sync.Mutex
	out     []record.Record
	lookups int
	err     error
}

func (c *rangeCollector) addRecords(recs []record.Record, lo, hi float64) {
	c.mu.Lock()
	c.out = record.FilterRange(c.out, recs, lo, hi)
	c.mu.Unlock()
}

func (c *rangeCollector) addLookup() {
	c.mu.Lock()
	c.lookups++
	c.mu.Unlock()
}

func (c *rangeCollector) addLookups(n int) {
	c.mu.Lock()
	c.lookups += n
	c.mu.Unlock()
}

// isCancellation reports whether err is (or wraps) a context
// cancellation or deadline expiry — the follow-on noise every other
// branch emits once one branch has failed for a real reason.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// setErr records the error the query surfaces. The first error wins,
// with one exception: a stored cancellation yields to a later
// non-cancellation error. Under ParallelRange one branch's real fault
// (say a dead Chord peer) makes the sibling branches observe
// context.Canceled; whichever order those land in, the root cause — not
// the collateral cancellation — must be what the caller sees.
func (c *rangeCollector) setErr(err error) {
	c.mu.Lock()
	if c.err == nil || (isCancellation(c.err) && !isCancellation(err)) {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *rangeCollector) snapshot() ([]record.Record, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out, c.lookups, c.err
}

// getBucketC fetches a bucket, charging the collector.
func (ix *Index) getBucketC(ctx context.Context, key string, col *rangeCollector) (*Bucket, error) {
	col.addLookup()
	return ix.fetchBucket(ctx, key)
}

// Range answers the range query [lo, hi) (sections 6.1-6.2): it returns
// every indexed record whose key falls in the range. Bounds must satisfy
// 0 <= lo < hi <= 1. The answer is a set: records come back in no
// particular order, as leaves are gathered in whatever order their
// replies arrive.
//
// The algorithm is the paper's general case (Algorithm 4): the initiator
// locally computes the range's lowest common ancestor LCA and fetches the
// leaf named f_n(LCA). A miss means the whole range lies in one leaf
// (an exact-match lookup finishes the query); an overlapping bucket starts
// recursive forwarding (Algorithm 3); a non-overlapping bucket descends
// through LCA's two children first. Forwarding needs only each bucket's
// local tree: branch nodes are enumerated with the neighbor functions, and
// every fully-covered branch is entered in one hop through its named leaf.
//
// Cost.Lookups counts every DHT-get (the bandwidth measure, at most B+3
// for B result buckets in the paper's analysis); Cost.Steps counts the
// longest dependent chain (the latency measure): all forwards issued by
// one bucket proceed in parallel. With Config.ParallelRange they really
// do - independent branches run in goroutines - which turns the Steps
// model into wall-clock time over networked substrates.
func (ix *Index) Range(lo, hi float64) ([]record.Record, Cost, error) {
	return ix.RangeContext(context.Background(), lo, hi)
}

// RangeContext is Range with a caller-supplied context. Cancelling the
// context stops the forwarding recursion promptly: no new branch fetches
// start, in-flight substrate operations observe the cancellation, and the
// parallel goroutines drain before RangeContext returns. The partial cost
// accumulated up to that point is still reported.
func (ix *Index) RangeContext(ctx context.Context, lo, hi float64) (res []record.Record, cost Cost, err error) {
	if err := keyspace.CheckKey(lo); err != nil {
		return nil, cost, fmt.Errorf("%w: lo: %v", ErrBadRange, err)
	}
	if !(hi > lo && hi <= 1) {
		return nil, cost, fmt.Errorf("%w: [%v, %v)", ErrBadRange, lo, hi)
	}
	ctx, done := ix.beginOp(ctx, metrics.OpRange)
	defer func() { done(err) }()
	r := keyspace.Interval{Lo: lo, Hi: hi}
	lca := keyspace.RangeLCA(r, ix.cfg.Depth)

	col := &rangeCollector{}
	b, err := ix.getBucketC(metrics.WithPhase(ctx, metrics.PhaseProbe), lca.Name().Key(), col)
	switch {
	case errors.Is(err, dht.ErrNotFound):
		// Case 1: no leaf is named f_n(LCA), so the subtree under LCA is
		// a single leaf covering the whole range: exact-match lookup.
		lb, _, lcost, err := ix.lookup(ctx, lo)
		out, lookups, _ := col.snapshot()
		cost.Lookups = lookups + lcost.Lookups
		cost.Steps = 1 + lcost.Steps
		if err != nil {
			return nil, cost, err
		}
		out = record.FilterRange(out, lb.Records, lo, hi)
		return out, cost, nil
	case err != nil:
		_, cost.Lookups, _ = col.snapshot()
		cost.Steps = 1
		return nil, cost, err
	}

	var depth int
	if b.Interval().Overlaps(r) {
		// Case 2: the simple case holds from this bucket.
		depth = 1 + ix.forward(ctx, b, r, col)
	} else {
		// Case 3: descend through both children of the LCA; each child's
		// subrange contains one bound of its half, so forwarding from the
		// entered leaf is again the simple case. The two descents proceed
		// in parallel.
		var d0, d1 int
		ix.inParallel(
			func() { d0 = ix.enterChild(ctx, lca.Left(), r, col) },
			func() { d1 = ix.enterChild(ctx, lca.Right(), r, col) },
		)
		depth = 1 + max(d0, d1)
	}
	out, lookups, err := col.snapshot()
	cost.Lookups = lookups
	cost.Steps = depth
	if err != nil {
		return nil, cost, err
	}
	return out, cost, nil
}

// inParallel runs the thunks concurrently when ParallelRange is set, or
// sequentially otherwise.
func (ix *Index) inParallel(thunks ...func()) {
	if !ix.cfg.ParallelRange {
		for _, f := range thunks {
			f()
		}
		return
	}
	var wg sync.WaitGroup
	for _, f := range thunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// enterChild fetches the leaf that starts the sweep inside one child
// subtree of the LCA and forwards the intersected range there. The child
// label itself is tried first (the leaf bound to that name is the subtree
// boundary leaf); if the child is a leaf rather than an internal node, the
// key misses and the leaf is found under f_n(child) instead - the one
// extra lookup the complexity analysis of section 6.3 budgets for.
// It returns the depth of the dependent lookup chain it issued.
func (ix *Index) enterChild(ctx context.Context, child bitlabel.Label, r keyspace.Interval, col *rangeCollector) int {
	ctx = metrics.WithPhase(ctx, metrics.PhaseForward)
	sub := keyspace.IntervalOf(child).Intersect(r)
	if sub.Empty() {
		return 0
	}
	if err := ctx.Err(); err != nil {
		col.setErr(fmt.Errorf("lht: range enter %s: %w", child, err))
		return 0
	}
	depth := 1
	b, err := ix.getBucketC(ctx, child.Key(), col)
	if errors.Is(err, dht.ErrNotFound) {
		depth = 2
		b, err = ix.getBucketC(ctx, child.Name().Key(), col)
	}
	if err != nil {
		col.setErr(fmt.Errorf("lht: range enter %s: %w", child, err))
		return depth
	}
	return depth + ix.forward(ctx, b, sub, col)
}

// forward implements the recursive forwarding of Algorithm 3 from bucket
// b, which the caller has already fetched: collect b's records in r, then
// sweep toward whichever sides of r extend beyond b's interval. Both
// sweeps and all per-branch forwards are issued by b's peer in one round,
// so the returned chain depth is the maximum over the branches.
func (ix *Index) forward(ctx context.Context, b *Bucket, r keyspace.Interval, col *rangeCollector) int {
	ctx = metrics.WithPhase(ctx, metrics.PhaseForward)
	col.addRecords(b.Records, r.Lo, r.Hi)
	if err := ctx.Err(); err != nil {
		col.setErr(fmt.Errorf("lht: range forward from %s: %w", b.Label, err))
		return 0
	}
	iv := b.Interval()
	var dRight, dLeft int
	ix.inParallel(
		func() {
			if r.Hi > iv.Hi {
				dRight = ix.sweep(ctx, b.Label, r, sweepRight, col)
			}
		},
		func() {
			if r.Lo < iv.Lo {
				dLeft = ix.sweep(ctx, b.Label, r, sweepLeft, col)
			}
		},
	)
	return max(dRight, dLeft)
}

type sweepDir int

const (
	sweepRight sweepDir = iota + 1
	sweepLeft
)

// sweep walks the branch nodes of the local tree of the leaf labeled from,
// in the given direction, decomposing r into per-branch subranges
// (Algorithm 3). A branch whose interval is fully inside r is entered
// through the leaf bound to f_n(beta): the far-end boundary leaf of the
// branch, which then sweeps back inward. The final, partially covered
// branch is entered through the leaf bound to beta itself: the near-end
// boundary leaf; if beta turns out to be a leaf, that get fails and the
// leaf is under f_n(beta) - the at-most-one failed lookup per sweep of
// section 6.3.
//
// The walk over branch labels is local arithmetic; every branch's fetch
// and recursive forward is independent, so in parallel mode each runs in
// its own goroutine. A cancelled context stops the recursion before any
// further branch fetch.
func (ix *Index) sweep(ctx context.Context, from bitlabel.Label, r keyspace.Interval, dir sweepDir, col *rangeCollector) int {
	ctx = metrics.WithPhase(ctx, metrics.PhaseForward)
	// Phase 1: enumerate the branches to visit (pure local arithmetic).
	type branchTask struct {
		label   bitlabel.Label
		inv     keyspace.Interval
		covered bool
	}
	var tasks []branchTask
	beta := from
loop:
	for {
		var ok bool
		if dir == sweepRight {
			beta, ok = beta.RightNeighbor()
		} else {
			beta, ok = beta.LeftNeighbor()
		}
		if !ok {
			break // reached the tree edge
		}
		inv := keyspace.IntervalOf(beta)
		covered := false
		switch dir {
		case sweepRight:
			if inv.Lo >= r.Hi {
				break loop // branch lies beyond the range
			}
			covered = inv.Hi <= r.Hi
		case sweepLeft:
			if inv.Hi <= r.Lo {
				break loop
			}
			covered = inv.Lo >= r.Lo
		}
		tasks = append(tasks, branchTask{label: beta, inv: inv, covered: covered})
		if !covered {
			break // the partially covered branch terminates the sweep
		}
	}

	// Phase 2: every branch's first probe goes out as one multi-get —
	// the same fan-out round the Steps model already treats as parallel,
	// now one round trip on a batch-native substrate. Each fetched branch
	// then forwards independently (concurrently under ParallelRange).
	// A covered branch probes its named leaf f_n(beta); the partially
	// covered terminal branch probes beta's own label, and a miss there
	// means beta is itself a leaf, found under f_n(beta) — the
	// at-most-one failed lookup of section 6.3, still a per-op follow-up.
	if len(tasks) == 0 {
		return 0
	}
	if err := ctx.Err(); err != nil {
		col.setErr(fmt.Errorf("lht: range forward %s: %w", tasks[0].label, err))
		return 0
	}
	keys := make([]string, len(tasks))
	for i, task := range tasks {
		if task.covered {
			keys[i] = task.label.Name().Key()
		} else {
			keys[i] = task.label.Key()
		}
	}
	col.addLookups(len(keys))
	vals, errs := dht.DoGetBatch(ctx, ix.d, keys)

	depths := make([]int, len(tasks))
	thunks := make([]func(), len(tasks))
	for i, task := range tasks {
		nb, err := ix.bucketOf(vals[i], errs[i], keys[i])
		if task.covered {
			// The branch is fully inside the remaining range: enter it
			// through its named leaf and let it sweep back inward.
			thunks[i] = func() {
				if err != nil {
					col.setErr(fmt.Errorf("lht: range forward %s: %w", task.label, err))
					depths[i] = 1
					return
				}
				depths[i] = 1 + ix.forward(ctx, nb, task.inv, col)
			}
			continue
		}
		thunks[i] = func() {
			hops := 1
			tb, terr := nb, err
			if errors.Is(terr, dht.ErrNotFound) {
				hops = 2
				tb, terr = ix.getBucketC(ctx, task.label.Name().Key(), col)
			}
			if terr != nil {
				col.setErr(fmt.Errorf("lht: range forward %s: %w", task.label, terr))
				depths[i] = hops
				return
			}
			depths[i] = hops + ix.forward(ctx, tb, task.inv.Intersect(r), col)
		}
	}
	ix.inParallel(thunks...)

	var depth int
	for _, d := range depths {
		if d > depth {
			depth = d
		}
	}
	return depth
}
