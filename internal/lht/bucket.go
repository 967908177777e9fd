// Package lht implements the LHT index engine: the paper's core
// contribution (sections 3-7). It materializes the space-partition tree as
// leaf buckets named onto a generic DHT by the naming function, and
// implements lookup (Algorithm 2), insertion with incremental tree growth
// (Algorithm 1), deletion with the dual merge, range queries (Algorithms
// 3-4) and min/max queries (Theorem 3).
//
// The engine is a client of the dht.DHT substrate interface and keeps no
// state of its own beyond configuration and maintenance statistics, which
// is exactly the over-DHT property the paper argues for: the DHT handles
// peer membership, routing and robustness; LHT pays maintenance only for
// tree structure adjustment.
package lht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"lht/internal/bitlabel"
	"lht/internal/dht"
	"lht/internal/keyspace"
	"lht/internal/record"
)

// Bucket is a leaf bucket (section 3.3): the atomic unit LHT maps into the
// DHT. It consists of the leaf label, from which the peer reconstructs the
// local tree, and the record store.
//
// The bucket's DHT key is Label.Name().Key() (the naming function); the
// label itself is carried inside the bucket so queries can rebuild the
// local tree and range forwarding can verify what it fetched.
type Bucket struct {
	// Label is the leaf's label in the partition tree.
	Label bitlabel.Label
	// Records are the stored data records, in no particular order.
	Records []record.Record
	// Epoch is a per-bucket version, bumped on every mutation the index
	// performs (record write-backs, splits, merges; children continue
	// their parent's count). Recovery uses it to order two overlapping
	// buckets: the higher epoch is the live structure, the lower a stale
	// remnant of a torn mutation or resurrected replica.
	Epoch uint64
	// Pending is the write-ahead intent of an in-flight structural
	// mutation (split or merge). It is recorded in the surviving bucket
	// before the multi-step rewrite begins and cleared by the final step,
	// so every intermediate state of a crashed mutation is detectable
	// from the bucket alone; see Index.Scrub and the lookup read-repair.
	Pending Pending
	// Rate is the leaf's decaying request-rate estimate in requests per
	// second, and RateAt the UnixNano timestamp of its last update. Both
	// are maintained only when the load-balancing plane is enabled
	// (Config.HotSplitRate > 0) and stay zero otherwise, so buckets
	// written with the plane off carry no trace of it. Updated on the
	// index's CAS commit path; splits halve it into each child and
	// merges sum it, so the estimate follows the structure it measures.
	Rate float64
	// RateAt timestamps Rate (UnixNano); zero means never touched.
	RateAt int64
}

// rateTau is the rate estimator's time constant: the estimate forgets
// at e^(-dt/tau) and each touch adds 1/tau (per second), so under a
// steady stream of lambda requests/sec the estimate converges to
// ~lambda. One second balances reactivity (a burst registers within a
// few hundred requests) against stability (a lull of a few seconds
// fully cools a leaf).
const rateTau = float64(time.Second)

// bumpRate folds one request at time now (UnixNano) into the decaying
// rate estimate. Calls with a frozen clock (dt == 0) skip the decay, so
// deterministic tests observe Rate == touch count exactly.
func (b *Bucket) bumpRate(now int64) {
	if b.RateAt != 0 && now > b.RateAt {
		b.Rate *= math.Exp(-float64(now-b.RateAt) / rateTau)
	}
	b.Rate += 1e9 / rateTau
	b.RateAt = now
}

// RateNow returns the rate estimate decayed to time now without
// recording a touch.
func (b *Bucket) RateNow(now int64) float64 {
	if b.RateAt == 0 || now <= b.RateAt {
		return b.Rate
	}
	return b.Rate * math.Exp(-float64(now-b.RateAt)/rateTau)
}

// PendingKind enumerates the structural mutations that leave a
// write-ahead intent in a bucket.
type PendingKind uint8

const (
	// PendingNone marks a bucket with no mutation in flight.
	PendingNone PendingKind = iota
	// PendingSplit marks a leaf about to split (Algorithm 1): the
	// partition is deterministic from the bucket itself, so the intent
	// needs no extra data. Until cleared, the remote half may or may not
	// yet exist under the leaf's own label key.
	PendingSplit
	// PendingMerge marks a merged bucket whose obsolete child has not yet
	// been removed from the DHT.
	PendingMerge
)

// Pending is a bucket's write-ahead intent. The zero value means no
// mutation is in flight.
type Pending struct {
	// Kind says which mutation was started.
	Kind PendingKind
	// RemoveKey, for merges, is the DHT key of the obsolete child bucket
	// to delete once the merged bucket is durable.
	RemoveKey string
	// PeerEpoch, for merges, is the epoch the obsolete child had when the
	// merge began. Recovery rolls the merge forward only if the child is
	// unchanged; a newer epoch means another client wrote to it after the
	// crash, so the merge is rolled back instead.
	PeerEpoch uint64
}

// Torn reports whether the bucket carries an uncleared mutation intent,
// i.e. a writer crashed between the intent and the final write.
func (b *Bucket) Torn() bool { return b.Pending.Kind != PendingNone }

// DHTEpoch implements dht.Epocher: conditional substrate writes compare
// the stored bucket's epoch against the writer's expectation, which is
// what serializes concurrent index mutations of one bucket.
func (b *Bucket) DHTEpoch() uint64 { return b.Epoch }

// Weight is the storage occupancy of the bucket: the record count plus one
// slot for the leaf label (section 9.2 notes the label occupies one record
// slot, which is what shifts the average alpha to 1/2 + 1/(2*theta)).
func (b *Bucket) Weight() int { return len(b.Records) + 1 }

// Interval returns the dyadic key interval this leaf covers.
func (b *Bucket) Interval() keyspace.Interval { return keyspace.IntervalOf(b.Label) }

// Contains reports whether the bucket's interval covers the data key.
func (b *Bucket) Contains(delta float64) bool { return b.Interval().Contains(delta) }

// Clone returns a deep copy of the bucket.
func (b *Bucket) Clone() *Bucket {
	out := &Bucket{Label: b.Label, Epoch: b.Epoch, Pending: b.Pending, Rate: b.Rate, RateAt: b.RateAt}
	if b.Records != nil {
		out.Records = make([]record.Record, len(b.Records))
		copy(out.Records, b.Records)
	}
	return out
}

// String summarizes the bucket for logs and test failures.
func (b *Bucket) String() string {
	return fmt.Sprintf("bucket(%s, %d records)", b.Label, len(b.Records))
}

func init() { dht.RegisterValue(dht.ValueIDBucket, DecodeBucket) }

// AppendBinary implements dht.BinaryAppender (and the standard library's
// encoding.BinaryAppender); substrates that cross process boundaries ship
// buckets in this form. The layout is (uv = unsigned varint, f64 =
// big-endian IEEE 754 bits):
//
//	label      9 bytes, bitlabel's binary form
//	epoch      uv
//	pending    u8 kind, uv length + remove key, uv peer epoch
//	rate       f64 rate, varint rateAt
//	records    uv count, then count x (f64 key, uv length + value)
func (b *Bucket) AppendBinary(out []byte) ([]byte, error) {
	out, _ = b.Label.AppendBinary(out)
	out = binary.AppendUvarint(out, b.Epoch)
	out = append(out, byte(b.Pending.Kind))
	out = binary.AppendUvarint(out, uint64(len(b.Pending.RemoveKey)))
	out = append(out, b.Pending.RemoveKey...)
	out = binary.AppendUvarint(out, b.Pending.PeerEpoch)
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(b.Rate))
	out = binary.AppendVarint(out, b.RateAt)
	out = binary.AppendUvarint(out, uint64(len(b.Records)))
	for _, r := range b.Records {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(r.Key))
		out = binary.AppendUvarint(out, uint64(len(r.Value)))
		out = append(out, r.Value...)
	}
	return out, nil
}

// EncodeBucket serializes a bucket in its AppendBinary form.
func EncodeBucket(b *Bucket) ([]byte, error) { return b.AppendBinary(nil) }

// minRecordLen is the smallest encoded record: an f64 key and a one-byte
// zero length.
const minRecordLen = 9

// errBucketTruncated reports input that ends inside a field.
var errBucketTruncated = errors.New("decode bucket: truncated")

// DecodeBucket is the strict inverse of AppendBinary: it rejects
// truncated input, malformed labels, unknown pending kinds, record counts
// the input cannot hold and trailing bytes. The result does not alias
// data. Like a gob round trip, it leaves Records nil for an empty bucket
// and Value nil for an empty record value; the record values share one
// exact-size allocation, each capped so an append cannot spill into its
// neighbour.
func DecodeBucket(data []byte) (*Bucket, error) {
	if len(data) < bitlabel.BinaryLen {
		return nil, errBucketTruncated
	}
	b := &Bucket{}
	if err := b.Label.UnmarshalBinary(data[:bitlabel.BinaryLen]); err != nil {
		return nil, fmt.Errorf("decode bucket: %w", err)
	}
	r := bucketReader{b: data[bitlabel.BinaryLen:]}
	b.Epoch = r.uvarint()
	b.Pending.Kind = PendingKind(r.u8())
	if key := r.lenBytes(); len(key) > 0 {
		b.Pending.RemoveKey = string(key)
	}
	b.Pending.PeerEpoch = r.uvarint()
	b.Rate = r.f64()
	b.RateAt = r.varint()
	n := r.uvarint()
	if r.bad {
		return nil, errBucketTruncated
	}
	if b.Pending.Kind > PendingMerge {
		return nil, fmt.Errorf("decode bucket: unknown pending kind %d", b.Pending.Kind)
	}
	body := r.b
	if n > uint64(len(body)/minRecordLen) {
		return nil, fmt.Errorf("decode bucket: %d records cannot fit in %d bytes", n, len(body))
	}
	// First pass: validate the records and size the value arena.
	p, total := 0, 0
	for range n {
		p += 8 // key
		if p >= len(body) {
			return nil, errBucketTruncated
		}
		// A value length under 128 is one byte, read inline.
		vlen, m := uint64(body[p]), 1
		if vlen >= 0x80 {
			vlen, m = binary.Uvarint(body[p:])
		}
		if m <= 0 || vlen > uint64(len(body)-p-m) {
			return nil, errBucketTruncated
		}
		p += m + int(vlen)
		total += int(vlen)
	}
	if p != len(body) {
		return nil, fmt.Errorf("decode bucket: %d trailing bytes", len(body)-p)
	}
	if n == 0 {
		return b, nil // Records stays nil
	}
	// Second pass: the records are known good; copy them out.
	b.Records = make([]record.Record, n)
	var arena []byte
	if total > 0 {
		arena = make([]byte, total)
	}
	p = 0
	for i := range b.Records {
		rec := &b.Records[i]
		rec.Key = math.Float64frombits(binary.BigEndian.Uint64(body[p:]))
		p += 8
		vlen, m := uint64(body[p]), 1
		if vlen >= 0x80 {
			vlen, m = binary.Uvarint(body[p:])
		}
		p += m
		if vlen > 0 {
			k := copy(arena, body[p:p+int(vlen)])
			rec.Value = arena[:k:k]
			arena = arena[k:]
			p += k
		}
	}
	return b, nil
}

// bucketReader walks an encoded bucket. A read past the end sets bad and
// returns zero values, so the decoder checks once per section instead of
// once per field.
type bucketReader struct {
	b   []byte
	bad bool
}

func (r *bucketReader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *bucketReader) u8() byte {
	if v := r.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *bucketReader) f64() float64 {
	if v := r.take(8); v != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(v))
	}
	return 0
}

func (r *bucketReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bucketReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bucketReader) lenBytes() []byte { return r.take(r.uvarint()) }
