package tcpnet

// Client-driven replication (Option WithReplicas): each key is stored on
// its owner plus the next replicas-1 distinct ring members, the same
// successor-set scheme the Chord substrate uses. The servers stay plain
// byte stores — fan-out, fallback and read spreading all live here:
//
//   - put-like ops store on every holder, concurrently, before returning;
//   - conditional ops resolve their compare-and-swap on the primary (the
//     one serializer per key) and propagate the outcome to the other
//     holders only after the primary accepted it — via OpPutNewer, the
//     epoch-ordered store: a holder rejects a propagated value whose
//     epoch tag is older than what it already stores;
//   - Get and Take rotate their starting holder per request across the
//     secondary holders — keeping a hot key's read queue off its CAS
//     serializer. Get then falls back to the primary and on through the
//     rest, so a lagging replica costs an extra round trip, never a wrong
//     answer, and it settles a miss once the primary and one other
//     holder have both answered NotFound (see replicatedGet): an absent
//     key costs two round trips, not one per holder.
//
// A key is therefore never *stale* on a reachable holder (every accepted
// write reaches all of them synchronously), at most *absent* where a
// fan-out has not landed yet, and absence falls back until the primary
// and one other holder agree on it; replicatedGet names the one window
// that leaves (a double fault stranding a key on one secondary).
// Concurrent writers to one key are serialized by the primary's CAS, but
// their fan-outs may interleave on the network; the epoch-ordered
// propagation makes that harmless — if commit N's fan-out overtakes
// commit N-1's, the straggler is rejected on arrival instead of durably
// rolling a holder back. The one remaining divergence window is a removal racing an earlier
// commit's fan-out (a late store can transiently resurrect a copy on a
// secondary after RemoveIf's propagation deleted it); that copy carries
// an older epoch, which the index's scrub orders and repairs. Batched
// stores replicate in per-rank waves (see PutBatch); batched reads group
// by primary, which holds every accepted write by construction.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"lht/internal/dht"
)

// appendOwners appends key's replica set to dst and returns the result:
// the owning node plus the next replicas-1 distinct members clockwise,
// primary first. Callers on the read path pass a [4]*clientNode stack
// buffer, so the holder walk allocates nothing.
func (c *Client) appendOwners(dst []*clientNode, key string) []*clientNode {
	nodes := c.ringNodes()
	i := ownerIndex(nodes, key)
	n := min(c.replicas, len(nodes))
	for k := 0; k < n; k++ {
		dst = append(dst, nodes[(i+k)%len(nodes)])
	}
	return dst
}

// rotateStart picks which holder a read of key starts at: the
// key-hash-plus-sequence rotation the Chord and Kademlia substrates use,
// but over the *secondary* holders only. The primary is every key's CAS
// serializer — it already queues the conditional writes and their
// fan-outs — so reads start away from it and touch it only as the
// fallback, keeping a hot key's read queue and its write queue on
// different nodes. With more than two replicas the rotation still
// spreads reads across the whole secondary set.
func (c *Client) rotateStart(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	start := 1 + int((uint64(h.Sum32())+c.readSeq.Add(1)-1)%uint64(n-1))
	c.spreadReads.Add(1)
	c.counters.AddSpreadReads(1)
	return start
}

// SpreadReads reports how many reads started at a non-primary holder.
func (c *Client) SpreadReads() int64 { return c.spreadReads.Load() }

// getFrom fetches key from one specific node on the binary wire.
func (c *Client) getFrom(ctx context.Context, n *clientNode, key string) (dht.Value, error) {
	tv, frame, err := n.simpleCall(ctx, dht.OpGet, func(b []byte) ([]byte, error) {
		return appendLenString(b, key), nil
	})
	if err != nil {
		return nil, err
	}
	v, err := decodeTaggedValue(tv)
	putBuf(frame)
	return v, err
}

// replicatedGet reads key by walking its holders in the order rotated
// start → primary → the rest (ascending rank), and returns the first
// value found. A miss settles once the primary and one other holder have
// both answered NotFound, so an absent key — a normal step of the
// index's binary search — costs two round trips, not one per holder.
// An accepted write is on every reachable holder before it is
// acknowledged, the primary first where there is an order (CAS commits
// resolve there before propagating, PutBatch writes rank 0 first), so
// when one holder is blank or lagging — a rejoined blank node, a missed
// fan-out, a primary whose copy waits on a hint — the other two still
// answer for the key. An error from a holder (transport fault, open
// breaker, spent step budget) never counts as a miss: the walk goes on
// past it, and a walk that ends unsettled reports the first such error. With two replicas the primary plus one other is every
// holder, so the rule changes nothing there.
//
// The one window the rule adds: a key held only by one secondary, with
// the primary and another holder reachable and both lacking it, reads as
// absent. That takes two holders missing one accepted write (a double
// fault whose hints have not replayed yet); GetBatch's primary-only reads
// already show such a key as absent whenever the primary lacks it.
//
// Degradation contract (WithHealth): a holder whose breaker is open
// fails in microseconds, so the read moves straight to the next holder —
// an open primary never costs a timeout. Each failover attempt runs
// under an even share of the caller's remaining deadline (stepCtx), so a
// black-holed holder burns its share of the budget, never all of it; the
// loop stops early only when the caller's own deadline is spent.
//
// A hedged duplicate (dht.MarkHedgeAttempt) starts at the primary
// instead: first reads never do, so the duplicate is guaranteed a
// different first holder than the straggler it is racing, whatever the
// rotation sequence did in between. Its miss settles in two round trips
// too.
func (c *Client) replicatedGet(ctx context.Context, key string) (dht.Value, error) {
	var buf [4]*clientNode
	owners := c.appendOwners(buf[:0], key)
	start := 0
	if !dht.IsHedgeAttempt(ctx) {
		start = c.rotateStart(key, len(owners))
	}
	var firstErr error
	misses, primaryMissed := 0, false
	for i := range owners {
		// Step 0 is the start holder; steps 1.. visit the other ranks in
		// ascending order, which puts the primary (rank 0) right after a
		// secondary start.
		rank := start
		if i > 0 {
			rank = i - 1
			if rank >= start {
				rank = i
			}
		}
		n := owners[rank]
		actx, cancel := stepCtx(ctx, len(owners)-i)
		v, err := c.getFrom(actx, n, key)
		cancel()
		if err == nil {
			return v, nil
		}
		if errors.Is(err, dht.ErrNotFound) {
			misses++
			primaryMissed = primaryMissed || rank == 0
			if primaryMissed && misses >= 2 {
				return nil, dht.ErrNotFound
			}
		} else {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				// The step budget expired, not the caller's deadline: to
				// the caller this is an ordinary transient holder fault
				// (the breaker already recorded the timeout against the
				// node), so it must stay retryable —
				// context.DeadlineExceeded would wrongly read as the
				// caller's own deadline and stop a policy-layer retry
				// loop cold.
				err = dht.MarkTransient(fmt.Errorf(
					"tcpnet: holder %q timed out inside its failover budget", n.addr))
			}
			if firstErr == nil {
				firstErr = err
			}
			if i < len(owners)-1 {
				c.counters.AddFailovers(1)
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, dht.ErrNotFound
}

// eachOwner runs op against every holder of key concurrently and returns
// the first error, with ErrNotFound outranked by any other error (a
// holder that never saw the key is expected mid-fan-out; a transport
// fault is not).
func (c *Client) eachOwner(ctx context.Context, key string, op func(*clientNode) error) error {
	var buf [4]*clientNode
	owners := c.appendOwners(buf[:0], key)
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, n := range owners {
		wg.Add(1)
		go func(i int, n *clientNode) {
			defer wg.Done()
			errs[i] = op(n)
		}(i, n)
	}
	wg.Wait()
	var notFound error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, dht.ErrNotFound) {
			notFound = err
			continue
		}
		return err
	}
	return notFound
}

// replicatedPut stores on every holder; with hinted handoff an
// unreachable holder's copy parks on a substitute instead of failing the
// put.
func (c *Client) replicatedPut(ctx context.Context, key string, v dht.Value) error {
	return c.eachOwner(ctx, key, func(n *clientNode) error {
		return c.putToOrHint(ctx, n, dht.OpPut, key, v)
	})
}

// putTo issues one put-like op (store or in-place write) to one node.
func (c *Client) putTo(ctx context.Context, n *clientNode, op dht.OpKind, key string, v dht.Value) error {
	_, frame, err := n.simpleCall(ctx, op, func(b []byte) ([]byte, error) {
		return appendValue(appendLenString(b, key), v)
	})
	if err != nil {
		return err
	}
	putBuf(frame)
	return nil
}

// replicatedWrite rewrites in place on every holder that has the key; a
// holder missing it is a pending fan-out, not an error, unless they all
// are.
func (c *Client) replicatedWrite(ctx context.Context, key string, v dht.Value) error {
	return c.eachOwner(ctx, key, func(n *clientNode) error {
		return c.putToOrHint(ctx, n, dht.OpWrite, key, v)
	})
}

// replicatedRemove deletes from every holder.
func (c *Client) replicatedRemove(ctx context.Context, key string) error {
	return c.eachOwner(ctx, key, func(n *clientNode) error {
		_, frame, err := n.simpleCall(ctx, dht.OpRemove, func(b []byte) ([]byte, error) {
			return appendLenString(b, key), nil
		})
		if err != nil {
			return err
		}
		putBuf(frame)
		return nil
	})
}

// replicatedTake fetches-and-deletes across the whole replica set: every
// holder gives up its copy, the rotated holder's value (first found from
// the rotated start) is returned.
func (c *Client) replicatedTake(ctx context.Context, key string) (dht.Value, error) {
	owners := c.appendOwners(nil, key)
	start := c.rotateStart(key, len(owners))
	vals := make([]dht.Value, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i := range owners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := owners[(start+i)%len(owners)]
			tv, frame, err := n.simpleCall(ctx, dht.OpTake, func(b []byte) ([]byte, error) {
				return appendLenString(b, key), nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			vals[i], errs[i] = decodeTaggedValue(tv)
			putBuf(frame)
		}(i)
	}
	wg.Wait()
	var firstErr error
	for i := range owners {
		if errs[i] == nil {
			return vals[i], nil
		}
		if !errors.Is(errs[i], dht.ErrNotFound) && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, dht.ErrNotFound
}

// replicatedCond resolves a conditional op on the primary — the one
// serializer for the key — and propagates the accepted outcome to the
// remaining holders: epoch-ordered stores (OpPutNewer) for the put-like
// conditionals, so two commits' concurrently in-flight fan-outs land in
// epoch order regardless of network interleaving, and removal for
// RemoveIf. Propagation failures surface to the caller (the write IS
// committed on the primary; the caller's retry loop re-runs against the
// committed state), they never roll back the primary's decision.
//
// With hinted handoff on, the serializer role itself fails over: an
// unreachable primary is skipped and the conditional resolves on the
// first reachable holder instead — every reachable holder carries the
// key's committed state (fan-outs are synchronous), so the CAS verdict
// is the same, and all writers walk the owner list in the same order, so
// within one view they agree on the acting serializer. The skipped
// holders then receive the outcome through the ordinary propagation
// path, whose hinting parks their copy for replay. Only transport
// faults fail over; a logical verdict (CAS conflict, not-found) from
// any holder settles the op.
func (c *Client) replicatedCond(ctx context.Context, key string, primary func(*clientNode) error, propagate func(*clientNode) error) error {
	var buf [4]*clientNode
	owners := c.appendOwners(buf[:0], key)
	acting, err := 0, error(nil)
	for i, n := range owners {
		acting, err = i, primary(n)
		if err == nil || !c.hinted || errors.Is(err, dht.ErrNotFound) || !dht.IsTransient(err) {
			break
		}
	}
	if err != nil {
		return err
	}
	errs := make([]error, 0, len(owners)-1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, n := range owners {
		if i == acting {
			continue
		}
		wg.Add(1)
		go func(n *clientNode) {
			defer wg.Done()
			perr := propagate(n)
			mu.Lock()
			errs = append(errs, perr)
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, dht.ErrNotFound) {
			return err
		}
	}
	return nil
}

// replicatedPutIf is PutIf with propagation of the accepted value.
func (c *Client) replicatedPutIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpPutIf, key, func(b []byte) ([]byte, error) {
				b = appendLenString(b, key)
				b = appendUv(b, ifEpoch)
				return appendValue(b, v)
			})
		},
		func(n *clientNode) error { return c.putToOrHint(ctx, n, dht.OpPutNewer, key, v) },
	)
}

// replicatedCreateIf is CreateIf with propagation of the created value.
func (c *Client) replicatedCreateIf(ctx context.Context, key string, v dht.Value) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpCreateIf, key, func(b []byte) ([]byte, error) {
				return appendValue(appendLenString(b, key), v)
			})
		},
		func(n *clientNode) error { return c.putToOrHint(ctx, n, dht.OpPutNewer, key, v) },
	)
}

// replicatedRemoveIf is RemoveIf with propagation of the removal.
// Removals are never hinted: replaying a deletion later could resurrect
// nothing but could race a newer create, so a missed removal is left to
// the scrub plane, whose epoch ordering repairs it safely.
func (c *Client) replicatedRemoveIf(ctx context.Context, key string, ifEpoch uint64) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpRemoveIf, key, func(b []byte) ([]byte, error) {
				b = appendLenString(b, key)
				return appendUv(b, ifEpoch), nil
			})
		},
		func(n *clientNode) error {
			_, frame, err := n.simpleCall(ctx, dht.OpRemove, func(b []byte) ([]byte, error) {
				return appendLenString(b, key), nil
			})
			if err != nil {
				return err
			}
			putBuf(frame)
			return nil
		},
	)
}

// replicatedWriteIf is WriteIf with propagation of the accepted value.
func (c *Client) replicatedWriteIf(ctx context.Context, key string, v dht.Value, ifEpoch uint64) error {
	return c.replicatedCond(ctx, key,
		func(n *clientNode) error {
			return n.condCall(ctx, dht.OpWriteIf, key, func(b []byte) ([]byte, error) {
				b = appendLenString(b, key)
				b = appendUv(b, ifEpoch)
				return appendValue(b, v)
			})
		},
		func(n *clientNode) error { return c.putToOrHint(ctx, n, dht.OpPutNewer, key, v) },
	)
}
