package tcpnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"lht/internal/dht"
	"lht/internal/dht/dhttest"
)

// startServers boots n fresh servers and returns their addresses.
func startServers(t *testing.T, n int) []string {
	t.Helper()
	return startServersFrom(t, n, "")
}

// startServersFrom boots n servers, each first loading the snapshot at
// path (none when path is empty), and returns their addresses.
func startServersFrom(t *testing.T, n int, path string) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv := NewServer()
		if path != "" {
			if err := srv.LoadSnapshot(path); err != nil {
				t.Fatal(err)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

// gobMigratedCluster boots three servers from a format-2 snapshot whose
// values a node of the retired gob wire wrote — a gob struct behind an
// epoch tag and gob raw bytes, under keys the battery never touches — and
// returns a client after checking that the migrated values read back.
func gobMigratedCluster(t *testing.T) dht.DHT {
	t.Helper()
	old := &dhttest.EpochValue{Epoch: 4, Body: "old"}
	tagged := append([]byte{tagEpoch}, appendUv(nil, old.Epoch)...)
	path := t.TempDir() + "/legacy.snap"
	writeLegacySnapshot(t, path, 2, map[string][]byte{
		"legacy/epoch": append(append(tagged, legacyTagGob), legacyGob(t, old)...),
		"legacy/bytes": append([]byte{legacyTagGob}, legacyGob(t, []byte("gb"))...),
	})
	c, err := DialContext(context.Background(), startServersFrom(t, 3, path))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()
	if v, err := c.Get(ctx, "legacy/epoch"); err != nil || !reflect.DeepEqual(v, old) {
		t.Fatalf("Get(legacy/epoch) = %#v, %v", v, err)
	}
	if v, err := c.Get(ctx, "legacy/bytes"); err != nil || !bytes.Equal(v.([]byte), []byte("gb")) {
		t.Fatalf("Get(legacy/bytes) = %v, %v", v, err)
	}
	return c
}

// TestClientConformance runs the full dhttest battery with both struct
// values (their registered binary codec) and raw []byte values (the
// zero-serialization fast path), plus the conditional battery, over two
// arms: fresh servers ("binary") and servers whose store was migrated on
// load from a snapshot of gob values ("gob").
func TestClientConformance(t *testing.T) {
	fresh := func(t *testing.T) dht.DHT {
		c, err := DialContext(context.Background(), startServers(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	for _, arm := range []struct {
		name    string
		factory func(t *testing.T) dht.DHT
	}{{"binary", fresh}, {"gob", gobMigratedCluster}} {
		t.Run(arm.name+"/struct", func(t *testing.T) {
			dhttest.Run(t, arm.factory, dhttest.Options{
				Keys:         120,
				ValueFactory: func(i int) dht.Value { return &payload{N: i} },
				ValueEqual: func(v dht.Value, i int) bool {
					p, ok := v.(*payload)
					return ok && p.N == i
				},
			})
		})
		t.Run(arm.name+"/bytes", func(t *testing.T) {
			dhttest.Run(t, arm.factory, dhttest.Options{
				Keys:         120,
				ValueFactory: func(i int) dht.Value { return []byte(fmt.Sprintf("v-%d", i)) },
				ValueEqual: func(v dht.Value, i int) bool {
					b, ok := v.([]byte)
					return ok && bytes.Equal(b, []byte(fmt.Sprintf("v-%d", i)))
				},
			})
		})
		t.Run(arm.name+"/conditional", func(t *testing.T) {
			// The byte store serves the CAS from the epoch prefix written
			// with every put-like op.
			dhttest.RunConditional(t, arm.factory, dhttest.Options{})
		})
	}
}

// unregistered is a value type with no binary codec.
type unregistered struct{ N int }

// TestValueKindsShareBatches mixes raw and codec values in one batch and
// requires a value with no registered codec to fail in its slot alone,
// on the per-key path and in a batch.
func TestValueKindsShareBatches(t *testing.T) {
	c, err := DialContext(context.Background(), startServers(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ctx := context.Background()
	if err := c.Put(ctx, "u", &unregistered{N: 1}); err == nil {
		t.Fatal("Put of an unregistered type succeeded")
	}
	kvs := []dht.KV{
		{Key: "b0", Val: []byte("b0")},
		{Key: "b1", Val: &payload{N: 1, S: "one"}},
		{Key: "b2", Val: &unregistered{N: 2}},
		{Key: "b3", Val: &dhttest.EpochValue{Epoch: 7, Body: "e"}},
	}
	errs := c.PutBatch(ctx, kvs)
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		t.Fatalf("PutBatch errs = %v", errs)
	}
	if errs[2] == nil {
		t.Fatal("PutBatch stored an unregistered type")
	}
	vals, gerrs := c.GetBatch(ctx, []string{"b0", "b1", "b2", "b3"})
	if gerrs[0] != nil || !bytes.Equal(vals[0].([]byte), []byte("b0")) {
		t.Fatalf("slot 0 = %#v, %v", vals[0], gerrs[0])
	}
	if gerrs[1] != nil || *vals[1].(*payload) != (payload{N: 1, S: "one"}) {
		t.Fatalf("slot 1 = %#v, %v", vals[1], gerrs[1])
	}
	if !errors.Is(gerrs[2], dht.ErrNotFound) {
		t.Fatalf("slot 2 err = %v, want not found", gerrs[2])
	}
	if ev, ok := vals[3].(*dhttest.EpochValue); gerrs[3] != nil || !ok || *ev != (dhttest.EpochValue{Epoch: 7, Body: "e"}) {
		t.Fatalf("slot 3 = %#v, %v", vals[3], gerrs[3])
	}
	// The batch put left the same epoch tag a per-key put does.
	if err := c.PutIf(ctx, "b3", &dhttest.EpochValue{Epoch: 8}, 7); err != nil {
		t.Fatalf("PutIf over a batch-stored epoch = %v", err)
	}
}
