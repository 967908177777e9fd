package metrics

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestCountersAndSnapshot(t *testing.T) {
	var c Counters
	c.AddLookups(3)
	c.AddFailedGets(1)
	c.AddMovedRecords(10)
	c.AddSplits(2)
	c.AddMerges(1)
	c.AddMaintLookups(2)
	c.AddCacheHits(5)
	c.AddCacheMisses(4)
	c.AddCacheStale(3)
	s := c.Snapshot()
	want := Snapshot{
		Lookup: LookupCounts{Total: 3, FailedGets: 1, MovedRecords: 10, Splits: 2, Merges: 1, Maintenance: 2},
		Cache:  CacheCounts{Hits: 5, Misses: 4, Stale: 3},
	}
	if s != want {
		t.Fatalf("Snapshot = %+v, want %+v", s, want)
	}
	diff := s.Sub(Snapshot{Lookup: LookupCounts{Total: 1, MovedRecords: 4}, Cache: CacheCounts{Hits: 2}})
	if diff.Lookup.Total != 2 || diff.Lookup.MovedRecords != 6 || diff.Lookup.Splits != 2 ||
		diff.Cache.Hits != 3 || diff.Cache.Stale != 3 {
		t.Fatalf("Sub = %+v", diff)
	}
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Fatal("Reset incomplete")
	}
}

func TestFlatSnapshot(t *testing.T) {
	var c Counters
	c.AddLookups(7)
	c.AddBatchOps(2)
	c.AddBatchedKeys(5)
	c.AddTornSplits(1)
	c.AddRepairs(1)
	s := c.Snapshot()
	f := s.Flat()
	if f.Lookups != 7 || f.BatchOps != 2 || f.BatchedKeys != 5 || f.TornSplits != 1 || f.Repairs != 1 {
		t.Fatalf("Flat = %+v", f)
	}
	if f.RoundTrips() != s.RoundTrips() || f.RoundTrips() != 4 {
		t.Fatalf("RoundTrips: flat %d, grouped %d, want 4", f.RoundTrips(), s.RoundTrips())
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.AddLookups(1)
				c.AddMaintLookups(1)
			}
		}()
	}
	wg.Wait()
	if s := c.Snapshot(); s.Lookup.Total != 8000 || s.Lookup.Maintenance != 8000 {
		t.Fatalf("Snapshot = %+v", s)
	}
}

func TestCountersChain(t *testing.T) {
	var root, a, b Counters
	a.Chain(&root)
	b.Chain(&root)
	a.AddLookups(3)
	b.AddLookups(4)
	a.AddSplits(1)
	a.ObserveOp(OpGet, time.Millisecond, false)
	a.AddPhaseLookups(OpGet, PhaseProbe, 2)
	if got := a.Snapshot().Lookup.Total; got != 3 {
		t.Fatalf("child a Lookup.Total = %d, want 3", got)
	}
	rs := root.Snapshot()
	if rs.Lookup.Total != 7 || rs.Lookup.Splits != 1 {
		t.Fatalf("root snapshot = %+v", rs.Lookup)
	}
	if g := rs.Latency.Ops[OpGet]; g.Count != 1 || g.Phases[PhaseProbe] != 2 {
		t.Fatalf("root OpGet stats = %+v", g)
	}
	// Resetting a child must not disturb what the root already absorbed.
	a.Reset()
	if got := root.Snapshot().Lookup.Total; got != 7 {
		t.Fatalf("root after child reset = %d, want 7", got)
	}
}

func TestObserveOp(t *testing.T) {
	var c Counters
	c.ObserveOp(OpInsert, 2*time.Millisecond, false)
	c.ObserveOp(OpInsert, 4*time.Millisecond, true)
	c.ObserveOp(OpRange, time.Millisecond, false)
	s := c.Snapshot()
	ins := s.Latency.Ops[OpInsert]
	if ins.Count != 2 || ins.Errors != 1 || ins.Hist.Count() != 2 {
		t.Fatalf("insert stats = %+v", ins)
	}
	if got := s.Latency.Ops[OpRange].Count; got != 1 {
		t.Fatalf("range count = %d", got)
	}
	if mean := ins.Hist.Mean(); mean < 2*time.Millisecond || mean > 4*time.Millisecond {
		t.Fatalf("insert mean = %v", mean)
	}
}

func TestContextLabels(t *testing.T) {
	ctx := context.Background()
	if lb := LabelsFrom(ctx); lb != (Labels{}) {
		t.Fatalf("unlabelled ctx = %+v", lb)
	}
	ctx = WithOp(ctx, OpRange)
	ctx = WithPhase(ctx, PhaseForward)
	if lb := LabelsFrom(ctx); lb.Op != OpRange || lb.Phase != PhaseForward {
		t.Fatalf("labels = %+v", lb)
	}
	// Same phase again: no new context allocation.
	if ctx2 := WithPhase(ctx, PhaseForward); ctx2 != ctx {
		t.Fatal("WithPhase(same) allocated a new context")
	}
	// A new op scope resets the phase.
	if lb := LabelsFrom(WithOp(ctx, OpScrub)); lb.Op != OpScrub || lb.Phase != PhaseOther {
		t.Fatalf("WithOp labels = %+v", lb)
	}
}

// TestContextLabelsPreBoxed pins the pre-boxed label table: every valid
// (op, phase) pair reads back exactly through LabelsFrom, an out-of-range
// pair still round-trips, and labelling a context allocates only the
// context node, never the value's interface box.
func TestContextLabelsPreBoxed(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		for ph := Phase(0); ph < NumPhases; ph++ {
			ctx := WithPhase(WithOp(context.Background(), op), ph)
			if lb := LabelsFrom(ctx); lb != (Labels{Op: op, Phase: ph}) {
				t.Fatalf("WithPhase(WithOp(%v), %v) = %+v", op, ph, lb)
			}
		}
	}
	if lb := LabelsFrom(WithPhase(WithOp(context.Background(), Op(99)), Phase(-1))); lb != (Labels{Op: 99, Phase: -1}) {
		t.Fatalf("out-of-range labels = %+v", lb)
	}
	base := context.Background()
	if n := testing.AllocsPerRun(100, func() { _ = WithPhase(WithOp(base, OpGet), PhaseProbe) }); n != 2 {
		t.Errorf("WithOp+WithPhase = %v allocs, want 2 (the two context nodes)", n)
	}
}

func TestOpPhaseStrings(t *testing.T) {
	if OpGet.String() != "get" || OpBulkLoad.String() != "bulkload" || Op(99).String() != "invalid" {
		t.Fatal("Op.String mismatch")
	}
	if PhaseProbe.String() != "probe" || PhaseRetry.String() != "retry" || Phase(-1).String() != "invalid" {
		t.Fatal("Phase.String mismatch")
	}
}

func TestCostAdd(t *testing.T) {
	c := Cost{Lookups: 2, Steps: 1}
	c.Add(Cost{Lookups: 3, Steps: 2})
	if c != (Cost{Lookups: 5, Steps: 3}) {
		t.Fatalf("Add = %+v", c)
	}
}
