package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lht"
)

// Substrate call kinds the tracing wrapper tells apart.
const (
	callGet = iota
	callPut
	callTake
	callRemove
	callWrite
	callPutIf
	callCreateIf
	callRemoveIf
	callWriteIf
	callGetBatch
	callPutBatch
	numCalls
)

// Index-op classes substrate calls are attributed to. classSetup covers
// everything issued outside a measured op: bulk load, warm-up and the
// post-run checks.
const (
	classGet = iota
	classInsert
	classDelete
	classRange
	classSetup
	numClasses
)

// substrateStats is what the tracing substrate wrapper accumulates: per
// op class and call kind, the calls made, the keys they carried and the
// time spent inside the substrate.
type substrateStats struct {
	calls [numClasses][numCalls]atomic.Int64
	keys  [numClasses][numCalls]atomic.Int64
	nanos [numClasses][numCalls]atomic.Int64
}

// substrateCounts is a plain copy of substrateStats, for window deltas.
type substrateCounts struct {
	calls, keys, nanos [numClasses][numCalls]int64
}

func (s *substrateStats) snapshot() substrateCounts {
	var c substrateCounts
	for i := 0; i < numClasses; i++ {
		for j := 0; j < numCalls; j++ {
			c.calls[i][j] = s.calls[i][j].Load()
			c.keys[i][j] = s.keys[i][j].Load()
			c.nanos[i][j] = s.nanos[i][j].Load()
		}
	}
	return c
}

func (a substrateCounts) to(b substrateCounts) substrateCounts {
	var d substrateCounts
	for i := 0; i < numClasses; i++ {
		for j := 0; j < numCalls; j++ {
			d.calls[i][j] = b.calls[i][j] - a.calls[i][j]
			d.keys[i][j] = b.keys[i][j] - a.keys[i][j]
			d.nanos[i][j] = b.nanos[i][j] - a.nanos[i][j]
		}
	}
	return d
}

func (d *substrateCounts) add(o substrateCounts) {
	for i := 0; i < numClasses; i++ {
		for j := 0; j < numCalls; j++ {
			d.calls[i][j] += o.calls[i][j]
			d.keys[i][j] += o.keys[i][j]
			d.nanos[i][j] += o.nanos[i][j]
		}
	}
}

// sum totals field f over the given classes and call kinds (nil = all).
func sum(f *[numClasses][numCalls]int64, classes, kinds []int) int64 {
	if classes == nil {
		classes = []int{classGet, classInsert, classDelete, classRange, classSetup}
	}
	var t int64
	for _, c := range classes {
		if kinds == nil {
			for k := 0; k < numCalls; k++ {
				t += f[c][k]
			}
			continue
		}
		for _, k := range kinds {
			t += f[c][k]
		}
	}
	return t
}

// opSpan is one traced index operation. Substrate calls made under its
// context record their intervals here, so the op's self time (its
// duration minus the part covered by substrate calls) can be computed
// even when range forwarding overlaps calls in parallel.
type opSpan struct {
	class int
	mu    sync.Mutex
	iv    [][2]time.Time
}

type spanKey struct{}

func withSpan(ctx context.Context, sp *opSpan) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

func spanOf(ctx context.Context) *opSpan {
	sp, _ := ctx.Value(spanKey{}).(*opSpan)
	return sp
}

// covered returns how much of [start, end] the span's substrate calls
// cover, counting overlapping calls once.
func (sp *opSpan) covered(start, end time.Time) time.Duration {
	sp.mu.Lock()
	iv := append([][2]time.Time(nil), sp.iv...)
	sp.mu.Unlock()
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	cur := start
	for _, x := range iv {
		a, b := x[0], x[1]
		if a.Before(cur) {
			a = cur
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// tracedDHT wraps the substrate handed to lht.New and times every call
// into it. It implements the optional Batcher and Conditional planes by
// delegating to the wrapped substrate's own, so the index takes exactly
// the code paths it takes over the bare substrate: no per-op batch
// decomposition and no fetch-verify emulation of conditional writes.
type tracedDHT struct {
	inner lht.DHT
	b     lht.Batcher
	c     lht.Conditional
	st    *substrateStats
}

var (
	_ lht.DHT         = (*tracedDHT)(nil)
	_ lht.Batcher     = (*tracedDHT)(nil)
	_ lht.Conditional = (*tracedDHT)(nil)
)

// wrapSubstrate returns d wrapped for tracing. It refuses a substrate
// without native batch and conditional planes, since wrapping one would
// have to change which code paths the index runs.
func wrapSubstrate(d lht.DHT, st *substrateStats) (*tracedDHT, error) {
	b, ok := d.(lht.Batcher)
	if !ok {
		return nil, fmt.Errorf("substrate %T has no native batch plane", d)
	}
	c, ok := d.(lht.Conditional)
	if !ok {
		return nil, fmt.Errorf("substrate %T has no native conditional plane", d)
	}
	return &tracedDHT{inner: d, b: b, c: c, st: st}, nil
}

func (t *tracedDHT) record(ctx context.Context, kind int, keys int, start time.Time) {
	end := time.Now()
	class := classSetup
	if sp := spanOf(ctx); sp != nil {
		class = sp.class
		sp.mu.Lock()
		sp.iv = append(sp.iv, [2]time.Time{start, end})
		sp.mu.Unlock()
	}
	t.st.calls[class][kind].Add(1)
	t.st.keys[class][kind].Add(int64(keys))
	t.st.nanos[class][kind].Add(int64(end.Sub(start)))
}

func (t *tracedDHT) Get(ctx context.Context, key string) (lht.Value, error) {
	start := time.Now()
	v, err := t.inner.Get(ctx, key)
	t.record(ctx, callGet, 1, start)
	return v, err
}

func (t *tracedDHT) Put(ctx context.Context, key string, v lht.Value) error {
	start := time.Now()
	err := t.inner.Put(ctx, key, v)
	t.record(ctx, callPut, 1, start)
	return err
}

func (t *tracedDHT) Take(ctx context.Context, key string) (lht.Value, error) {
	start := time.Now()
	v, err := t.inner.Take(ctx, key)
	t.record(ctx, callTake, 1, start)
	return v, err
}

func (t *tracedDHT) Remove(ctx context.Context, key string) error {
	start := time.Now()
	err := t.inner.Remove(ctx, key)
	t.record(ctx, callRemove, 1, start)
	return err
}

func (t *tracedDHT) Write(ctx context.Context, key string, v lht.Value) error {
	start := time.Now()
	err := t.inner.Write(ctx, key, v)
	t.record(ctx, callWrite, 1, start)
	return err
}

func (t *tracedDHT) GetBatch(ctx context.Context, keys []string) ([]lht.Value, []error) {
	start := time.Now()
	vs, errs := t.b.GetBatch(ctx, keys)
	t.record(ctx, callGetBatch, len(keys), start)
	return vs, errs
}

func (t *tracedDHT) PutBatch(ctx context.Context, kvs []lht.KV) []error {
	start := time.Now()
	errs := t.b.PutBatch(ctx, kvs)
	t.record(ctx, callPutBatch, len(kvs), start)
	return errs
}

func (t *tracedDHT) PutIf(ctx context.Context, key string, v lht.Value, ifEpoch uint64) error {
	start := time.Now()
	err := t.c.PutIf(ctx, key, v, ifEpoch)
	t.record(ctx, callPutIf, 1, start)
	return err
}

func (t *tracedDHT) CreateIf(ctx context.Context, key string, v lht.Value) error {
	start := time.Now()
	err := t.c.CreateIf(ctx, key, v)
	t.record(ctx, callCreateIf, 1, start)
	return err
}

func (t *tracedDHT) RemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	start := time.Now()
	err := t.c.RemoveIf(ctx, key, ifEpoch)
	t.record(ctx, callRemoveIf, 1, start)
	return err
}

func (t *tracedDHT) WriteIf(ctx context.Context, key string, v lht.Value, ifEpoch uint64) error {
	start := time.Now()
	err := t.c.WriteIf(ctx, key, v, ifEpoch)
	t.record(ctx, callWriteIf, 1, start)
	return err
}
