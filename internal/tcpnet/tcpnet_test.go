package tcpnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// startCluster boots n servers on loopback and returns a connected client.
func startCluster(t *testing.T, n int) (*Client, []*Server) {
	t.Helper()
	addrs := make([]string, 0, n)
	servers := make([]*Server, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		go func() {
			if err := srv.Serve(ln); err != nil {
				t.Logf("server exited: %v", err)
			}
		}()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		servers = append(servers, srv)
	}
	c, err := DialContext(context.Background(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, servers
}

// payload is the tests' non-[]byte value: a struct with its own binary
// codec, registered the way an embedding program registers its types.
type payload struct {
	N int
	S string
}

// payloadCodecID keeps clear of the module's own codec ids.
const payloadCodecID = 1 << 20

func (p *payload) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(p.N))
	return append(b, p.S...), nil
}

func decodePayload(data []byte) (*payload, error) {
	n, k := binary.Varint(data)
	if k <= 0 {
		return nil, errors.New("payload: truncated")
	}
	return &payload{N: int(n), S: string(data[k:])}, nil
}

func init() { dht.RegisterValue(payloadCodecID, decodePayload) }

func TestClusterBasicOps(t *testing.T) {
	c, servers := startCluster(t, 3)

	if err := c.Put(context.Background(), "a", &payload{N: 1, S: "x"}); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if p := v.(*payload); p.N != 1 || p.S != "x" {
		t.Fatalf("Get = %+v", p)
	}
	if _, err := c.Get(context.Background(), "missing"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	if err := c.Write(context.Background(), "a", &payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Get(context.Background(), "a"); v.(*payload).N != 2 {
		t.Fatal("Write lost")
	}
	if err := c.Write(context.Background(), "missing", &payload{}); !errors.Is(err, dht.ErrNotFound) {
		t.Fatalf("Write missing = %v", err)
	}
	v, err = c.Take(context.Background(), "a")
	if err != nil || v.(*payload).N != 2 {
		t.Fatalf("Take = %v, %v", v, err)
	}
	if _, err := c.Take(context.Background(), "a"); !errors.Is(err, dht.ErrNotFound) {
		t.Fatal("second Take should miss")
	}
	if err := c.Put(context.Background(), "b", &payload{N: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(context.Background(), "b"); err != nil {
		t.Fatal("Remove absent must not error")
	}

	// Keys spread across the member set.
	total := 0
	for i := 0; i < 60; i++ {
		if err := c.Put(context.Background(), fmt.Sprintf("spread-%d", i), &payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := 0
	for _, s := range servers {
		total += s.Len()
		if s.Len() > 0 {
			nonEmpty++
		}
	}
	if total != 60 {
		t.Fatalf("cluster holds %d keys, want 60", total)
	}
	if nonEmpty < 2 {
		t.Errorf("keys landed on %d of 3 nodes", nonEmpty)
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := DialContext(context.Background(), nil); err == nil {
		t.Error("Dial with no nodes should fail")
	}
	if _, err := DialContext(context.Background(), []string{"x:1", "x:1"}); err == nil {
		t.Error("Dial with duplicates should fail")
	}
	if _, err := DialContext(context.Background(), []string{"127.0.0.1:1"}); err == nil {
		t.Error("Dial to a dead port should fail the ping")
	}
}

func TestConcurrentClients(t *testing.T) {
	c, _ := startCluster(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("c%d-%d", g, i)
				if err := c.Put(context.Background(), key, &payload{N: i}); err != nil {
					t.Error(err)
					return
				}
				v, err := c.Get(context.Background(), key)
				if err != nil || v.(*payload).N != i {
					t.Errorf("Get(%s) = %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLHTOverTCPCluster runs the full index over real sockets: the
// deployment mode end to end.
func TestLHTOverTCPCluster(t *testing.T) {
	c, _ := startCluster(t, 5)
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	oracle := make(map[float64]bool)
	for i := 0; i < 400; i++ {
		k := rng.Float64()
		if rng.Intn(5) == 0 && len(oracle) > 0 {
			for dk := range oracle {
				k = dk
				break
			}
			if _, err := ix.Delete(k); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			delete(oracle, k)
			continue
		}
		if _, err := ix.Insert(record.Record{Key: k, Value: []byte("v")}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oracle[k] = true
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Range(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(oracle) {
		t.Fatalf("Range(0,1) = %d records, want %d", len(got), len(oracle))
	}
	for k := range oracle {
		if _, _, err := ix.Search(k); err != nil {
			t.Fatalf("Search(%v): %v", k, err)
		}
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	c, err := DialContext(context.Background(), []string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), "k", &payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	// The client should now fail cleanly.
	if err := c.Put(context.Background(), "k2", &payload{N: 2}); err == nil {
		t.Error("Put to closed server should fail")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/node.snap"

	srv := NewServer()
	for i := 0; i < 50; i++ {
		srv.store[fmt.Sprintf("k%d", i)] = []byte{tagRaw, byte(i)}
	}
	if err := srv.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}

	restored := NewServer()
	if err := restored.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 50 {
		t.Fatalf("restored %d keys, want 50", restored.Len())
	}
	if v := restored.store["k7"]; !bytes.Equal(v, []byte{tagRaw, 7}) {
		t.Fatalf("restored value = %v", v)
	}

	// Missing snapshot is a fresh node, not an error.
	fresh := NewServer()
	if err := fresh.LoadSnapshot(dir + "/absent.snap"); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 0 {
		t.Fatal("fresh node should be empty")
	}

	// Corrupt snapshot is an error.
	if err := os.WriteFile(dir+"/bad.snap", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadSnapshot(dir + "/bad.snap"); err == nil {
		t.Fatal("corrupt snapshot should fail")
	}
}

// TestNodeRestartPreservesIndex restarts a node under a live index and
// verifies the shard survives via the snapshot.
func TestNodeRestartPreservesIndex(t *testing.T) {
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer()
	go func() { _ = srv.Serve(ln) }()

	c, err := DialContext(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ilht.New(c, ilht.Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	keys := make([]float64, 100)
	for i := range keys {
		keys[i] = rng.Float64()
		if _, err := ix.Insert(record.Record{Key: keys[i]}); err != nil {
			t.Fatal(err)
		}
	}

	// Stop, snapshot, restart on the same port, reload.
	snapPath := dir + "/shard.snap"
	if err := srv.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	srv2 := NewServer()
	if err := srv2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { _ = srv2.Close() })

	c2, err := DialContext(context.Background(), []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := ilht.New(c2, ilht.Config{SplitThreshold: 8, MergeThreshold: 0, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, _, err := ix2.Search(k); err != nil {
			t.Fatalf("after restart, Search(%v): %v", k, err)
		}
	}
}

// writeLegacySnapshot writes store as a snapshot of the given format,
// the way a node that still spoke gob values saved its shard.
func writeLegacySnapshot(t *testing.T, path string, format int, store map[string][]byte) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(snapshot{Format: format, Store: store}); err != nil {
		t.Fatal(err)
	}
}

// legacyGob is the retired gob value encoding: an interface-typed gob
// stream, as the old client wrote every non-[]byte value.
func legacyGob(t *testing.T, v dht.Value) []byte {
	t.Helper()
	legacyGobTypes()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotMigratesGobValues loads format-1 and format-2 snapshots
// holding gob values — buckets behind an epoch tag, bare buckets, gob and
// raw bytes — and requires a binary client to read back equal buckets,
// with the stored epoch tags serving CAS compares.
func TestSnapshotMigratesGobValues(t *testing.T) {
	ctx := context.Background()
	buckets := []*ilht.Bucket{
		{Label: bitlabel.MustParse("#0"), Epoch: 3},
		{
			Label:   bitlabel.MustParse("#0110"),
			Records: []record.Record{{Key: 0.4, Value: []byte("a")}, {Key: 0.41}},
			Epoch:   9,
			Pending: ilht.Pending{Kind: ilht.PendingMerge, RemoveKey: "#0111", PeerEpoch: 4},
			Rate:    2.5, RateAt: 77,
		},
	}
	epochTagged := func(b *ilht.Bucket) []byte {
		v := append([]byte{tagEpoch}, appendUv(nil, b.Epoch)...)
		return append(append(v, legacyTagGob), legacyGob(t, b)...)
	}
	format2 := map[string][]byte{
		"b0":      epochTagged(buckets[0]),
		"b1":      epochTagged(buckets[1]),
		"gobraw":  append([]byte{legacyTagGob}, legacyGob(t, []byte("gb"))...),
		"raw":     {tagRaw, 'r'},
		"payload": append([]byte{legacyTagGob}, legacyGob(t, &payload{N: 5, S: "p"})...),
	}
	format1 := map[string][]byte{
		"b0":     legacyGob(t, buckets[0]),
		"b1":     legacyGob(t, buckets[1]),
		"gobraw": legacyGob(t, []byte("gb")),
	}
	for _, tc := range []struct {
		format int
		store  map[string][]byte
	}{{2, format2}, {1, format1}} {
		t.Run(fmt.Sprintf("format%d", tc.format), func(t *testing.T) {
			path := t.TempDir() + "/old.snap"
			writeLegacySnapshot(t, path, tc.format, tc.store)
			srv := NewServer()
			if err := srv.LoadSnapshot(path); err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = srv.Serve(ln) }()
			t.Cleanup(func() { _ = srv.Close() })
			c, err := DialContext(ctx, []string{ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })

			for i, want := range buckets {
				key := fmt.Sprintf("b%d", i)
				v, err := c.Get(ctx, key)
				if err != nil {
					t.Fatalf("Get(%s): %v", key, err)
				}
				if !reflect.DeepEqual(v, want) {
					t.Fatalf("Get(%s) = %#v, want %#v", key, v, want)
				}
				// The migrated value carries its epoch tag: a stale CAS
				// loses to exactly the bucket's epoch.
				var cf *dht.CASConflictError
				if err := c.PutIf(ctx, key, want, want.Epoch+1); !errors.As(err, &cf) || cf.WinnerEpoch != want.Epoch {
					t.Fatalf("PutIf(%s, stale) = %v, want conflict with winner %d", key, err, want.Epoch)
				}
				srv.mu.Lock()
				got := storedEpoch(srv.store[key])
				srv.mu.Unlock()
				if got != want.Epoch {
					t.Fatalf("stored epoch of %s = %d, want %d", key, got, want.Epoch)
				}
			}
			if v, err := c.Get(ctx, "gobraw"); err != nil || !bytes.Equal(v.([]byte), []byte("gb")) {
				t.Fatalf("Get(gobraw) = %v, %v", v, err)
			}
			if tc.format == 2 {
				if v, err := c.Get(ctx, "raw"); err != nil || !bytes.Equal(v.([]byte), []byte("r")) {
					t.Fatalf("Get(raw) = %v, %v", v, err)
				}
				if v, err := c.Get(ctx, "payload"); err != nil || *v.(*payload) != (payload{N: 5, S: "p"}) {
					t.Fatalf("Get(payload) = %v, %v", v, err)
				}
			}
			// The migrated store saves as format 3 and reloads unchanged.
			again := t.TempDir() + "/new.snap"
			if err := srv.SaveSnapshot(again); err != nil {
				t.Fatal(err)
			}
			reloaded := NewServer()
			if err := reloaded.LoadSnapshot(again); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reloaded.store, srv.store) {
				t.Fatal("format-3 reload differs from the migrated store")
			}
		})
	}
}

// TestSnapshotMigrationRefusesUnknownGob fails the load of a gob value
// whose type has no binary codec rather than keeping bytes no client can
// read.
func TestSnapshotMigrationRefusesUnknownGob(t *testing.T) {
	type orphan struct{ X int }
	gob.Register(&orphan{})
	path := t.TempDir() + "/old.snap"
	writeLegacySnapshot(t, path, 2, map[string][]byte{
		"o": append([]byte{legacyTagGob}, legacyGob(t, &orphan{X: 1})...),
	})
	if err := NewServer().LoadSnapshot(path); err == nil {
		t.Fatal("a gob value with no binary codec loaded")
	}
}
