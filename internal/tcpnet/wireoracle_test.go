package tcpnet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lht/internal/dht"
	ilht "lht/internal/lht"
	"lht/internal/record"
)

// indexCost is the slice of an index's cost counters the codec oracle
// compares across substrates.
type indexCost struct {
	Lookups, BatchOps, BatchedKeys, Splits, Merges int64
}

// runOracleWorkload drives a deterministic index workload over d — bulk
// load (the batch plane), point inserts, deletes, searches and range
// queries — and returns the final leaves plus the index's cost counters.
func runOracleWorkload(t *testing.T, d dht.DHT) ([]*ilht.Bucket, indexCost) {
	t.Helper()
	ix, err := ilht.New(d, ilht.Config{SplitThreshold: 8, MergeThreshold: 6, Depth: 20})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	recs := make([]record.Record, 200)
	for i := range recs {
		recs[i] = record.Record{Key: rng.Float64(), Value: []byte(fmt.Sprintf("r%d", i))}
	}
	if _, err := ix.BulkLoad(recs); err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, 0, 120)
	for i := 0; i < 120; i++ {
		k := rng.Float64()
		keys = append(keys, k)
		// Every fifth insert carries an empty value, which must come
		// back nil as it does in-process.
		var v []byte
		if i%5 != 0 {
			v = []byte("ins")
		}
		if _, err := ix.Insert(record.Record{Key: k, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := ix.Delete(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 40; i < 80; i++ {
		if _, _, err := ix.Search(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		lo := rng.Float64() * 0.9
		if _, _, err := ix.Range(lo, lo+0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	leaves, err := ix.Leaves()
	if err != nil {
		t.Fatal(err)
	}
	f := ix.Metrics().Flat()
	return leaves, indexCost{f.Lookups, f.BatchOps, f.BatchedKeys, f.Splits, f.Merges}
}

// TestCodecOracle pins the binary value codec to the in-process
// substrate, which stores buckets as live objects and encodes nothing:
// the identical index workload must leave deeply equal trees and charge
// identical costs. The codec may change how bytes travel, never what the
// index observes or what the cost model charges.
func TestCodecOracle(t *testing.T) {
	c, err := DialContext(context.Background(), startServers(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	netTree, netCost := runOracleWorkload(t, c)
	localTree, localCost := runOracleWorkload(t, dht.NewLocal())

	if !reflect.DeepEqual(netTree, localTree) {
		t.Errorf("tree state diverges: %d leaves over tcpnet, %d in-process", len(netTree), len(localTree))
	}
	if netCost != localCost {
		t.Errorf("cost-model counters diverge:\n tcpnet: %+v\n local:  %+v", netCost, localCost)
	}
	if netCost.Lookups == 0 || netCost.BatchOps == 0 || netCost.Splits == 0 {
		t.Errorf("oracle workload did not exercise the cost model: %+v", netCost)
	}
}
