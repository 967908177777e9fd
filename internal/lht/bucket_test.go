package lht

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"lht/internal/bitlabel"
	"lht/internal/record"
)

// codecBuckets covers the bucket codec's corners: the nil-vs-empty
// results a gob round trip produced, merge intents, rate fields and the
// deepest label.
func codecBuckets() map[string]*Bucket {
	deep := bitlabel.TreeRoot
	for deep.Len() < bitlabel.MaxBits {
		deep = deep.Child(deep.Len() % 2)
	}
	return map[string]*Bucket{
		"empty":       {Label: bitlabel.TreeRoot},
		"virtualRoot": {Label: bitlabel.Root},
		"emptyValues": {Label: bitlabel.MustParse("#01"), Records: []record.Record{{Key: 0.3}, {Key: 0.4, Value: []byte("x")}, {Key: 0.45}}},
		"merge": {
			Label: bitlabel.MustParse("#0110"), Epoch: 41,
			Pending: Pending{Kind: PendingMerge, RemoveKey: "#0111", PeerEpoch: 17},
			Records: []record.Record{{Key: 0.4, Value: []byte("a")}},
		},
		"split":          {Label: bitlabel.MustParse("#00"), Epoch: 1 << 40, Pending: Pending{Kind: PendingSplit}},
		"rate":           {Label: bitlabel.MustParse("#0"), Rate: 123.456, RateAt: 1_700_000_000_123_456_789},
		"negativeRateAt": {Label: bitlabel.MustParse("#0"), Rate: -1, RateAt: -5},
		"maxDepth": {
			Label:   deep,
			Records: []record.Record{{Key: math.Nextafter(1, 0), Value: bytes.Repeat([]byte{0xff}, 300)}, {Key: 0}},
			Epoch:   math.MaxUint64,
		},
	}
}

// TestBucketCodecRoundTrip decodes every corner bucket back deeply equal,
// including nil Records for an empty bucket and nil Value for an empty
// value.
func TestBucketCodecRoundTrip(t *testing.T) {
	for name, b := range codecBuckets() {
		t.Run(name, func(t *testing.T) {
			data, err := b.AppendBinary([]byte("prefix"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, []byte("prefix")) {
				t.Fatal("AppendBinary overwrote its destination")
			}
			got, err := DecodeBucket(data[len("prefix"):])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, b) {
				t.Fatalf("round trip = %#v, want %#v", got, b)
			}
		})
	}
	// An empty but non-nil record slice decodes to nil, as with gob.
	got, err := DecodeBucket(mustEncode(t, &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{}}))
	if err != nil || got.Records != nil {
		t.Fatalf("empty record slice decoded to %#v, %v; want nil", got.Records, err)
	}
}

// TestBucketCodecValuesDoNotOverlap pins the shared value arena: appending
// to one decoded value must never write into its neighbour.
func TestBucketCodecValuesDoNotOverlap(t *testing.T) {
	b := &Bucket{Label: bitlabel.TreeRoot, Records: []record.Record{
		{Key: 0.1, Value: []byte("aa")}, {Key: 0.2}, {Key: 0.3, Value: []byte("bb")},
	}}
	got, err := DecodeBucket(mustEncode(t, b))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Records[0].Value, 'X')
	if string(got.Records[2].Value) != "bb" {
		t.Fatalf("append to one value changed its neighbour to %q", got.Records[2].Value)
	}
}

// TestDecodeBucketRejects covers the strict decoder's refusals.
func TestDecodeBucketRejects(t *testing.T) {
	valid := mustEncode(t, codecBuckets()["merge"])
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeBucket(valid[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(valid))
		}
	}
	// header builds a valid encoding up to (not including) the record
	// count, with the given label bytes and pending kind.
	header := func(label []byte, kind byte) []byte {
		b := append([]byte(nil), label...)
		b = binary.AppendUvarint(b, 1) // epoch
		b = append(b, kind, 0, 0)      // pending kind, empty key, peer epoch
		b = binary.BigEndian.AppendUint64(b, 0)
		return binary.AppendVarint(b, 0)
	}
	label, _ := bitlabel.TreeRoot.MarshalBinary()
	for name, data := range map[string][]byte{
		"trailing":     append(append([]byte(nil), valid...), 0),
		"trailingZero": append(header(label, 0), 0, 0),
		"hugeCount":    binary.AppendUvarint(header(label, 0), 1<<60),
		"countPastEnd": append(binary.AppendUvarint(header(label, 0), 3), make([]byte, 18)...),
		"pendingKind":  append(header(label, byte(PendingMerge)+1), 0),
		"labelTooDeep": append(header([]byte{bitlabel.MaxBits + 1, 0, 0, 0, 0, 0, 0, 0, 0}, 0), 0),
		"labelFirst1":  append(header([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1}, 0), 0),
		"valuePastEnd": append(binary.BigEndian.AppendUint64(binary.AppendUvarint(header(label, 0), 1), 0), 5, 'a'),
		"junk":         []byte("junk"),
	} {
		if b, err := DecodeBucket(data); err == nil {
			t.Errorf("%s: decoded %v", name, b)
		} else if !strings.HasPrefix(err.Error(), "decode bucket") {
			t.Errorf("%s: error %q does not name the bucket decoder", name, err)
		}
	}
}

// BenchmarkDecodeBucket decodes leaf buckets of the sizes the tcpnet
// value path carries: 64 records of 16-byte values and 53 of 64 bytes.
// Every run costs 3 allocations: the bucket, its records and one value
// arena.
func BenchmarkDecodeBucket(b *testing.B) {
	for _, size := range []struct{ n, value int }{{64, 16}, {53, 64}} {
		bk := &Bucket{Label: bitlabel.MustParse("#0110"), Epoch: 7}
		for i := range size.n {
			bk.Records = append(bk.Records, record.Record{Key: float64(i) / 128, Value: bytes.Repeat([]byte{byte(i)}, size.value)})
		}
		data := mustEncode(b, bk)
		b.Run(fmt.Sprintf("%dx%dB", size.n, size.value), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for range b.N {
				if _, err := DecodeBucket(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustEncode(t testing.TB, b *Bucket) []byte {
	t.Helper()
	data, err := EncodeBucket(b)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodeBucket feeds the decoder arbitrary bytes: it must never panic,
// never allocate more than the input can describe, and whatever it
// accepts must survive an encode/decode round trip unchanged.
func FuzzDecodeBucket(f *testing.F) {
	for _, b := range codecBuckets() {
		data := mustEncode(f, b)
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBucket(data)
		if err != nil {
			return
		}
		if cap(b.Records) > len(data)/minRecordLen {
			t.Fatalf("%d record slots from %d bytes", cap(b.Records), len(data))
		}
		values := 0
		for _, r := range b.Records {
			values += cap(r.Value)
		}
		if values > len(data) {
			t.Fatalf("%d value bytes from %d input bytes", values, len(data))
		}
		again, err := EncodeBucket(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) > len(data) {
			t.Fatalf("re-encoding grew %d -> %d bytes", len(data), len(again))
		}
		b2, err := DecodeBucket(again)
		if err != nil {
			t.Fatalf("re-encoded bucket does not decode: %v", err)
		}
		// NaN keys or rates compare unequal to themselves; compare bits.
		if !reflect.DeepEqual(bucketBits(b2), bucketBits(b)) {
			t.Fatalf("round trip changed the bucket:\n%#v\n%#v", b, b2)
		}
	})
}

// bucketBits is b with its floats replaced by their bit patterns, so
// DeepEqual treats NaNs as equal.
func bucketBits(b *Bucket) any {
	type rec struct {
		Key   uint64
		Value []byte
	}
	recs := make([]rec, len(b.Records))
	for i, r := range b.Records {
		recs[i] = rec{math.Float64bits(r.Key), r.Value}
	}
	return []any{b.Label, b.Epoch, b.Pending, math.Float64bits(b.Rate), b.RateAt, recs, b.Records == nil}
}
