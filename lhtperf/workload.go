package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"lht"
)

// spec is one workload: the substrate, the data, the op mix, and how
// much work one run replays.
type spec struct {
	name     string
	cluster  bool // 4-node loopback tcpnet cluster; false = in-process dht.Local
	cache    bool // leaf cache on, at default capacity
	records  int  // bulk-loaded records
	valueLen int  // bytes per record value

	// Op mix, as cumulative shares of get, insert and delete; the rest
	// are ranges.
	getFrac, insertFrac, deleteFrac float64
	readSet                         int     // > 0: gets draw Zipf(zipfS) over this many loaded keys
	zipfS                           float64 // Zipf exponent of the read set
	rangeSpan                       float64 // key-space width of a range query

	// scheduleRate sizes the schedule: seconds x scheduleRate ops,
	// drawn from the seed before timing starts, so a
	// faster build does the same work in less time. A run replays it
	// totalRate / scheduleRate times, each over a freshly loaded index,
	// so a workload whose ops are cheap measures long enough without
	// growing its tree past the leaf cache. The rates are what the
	// 2-vCPU reference host sustains.
	scheduleRate, totalRate float64
	// segments splits each replay into this many separately measured
	// stretches; time metrics are the median over all of them.
	segments int
	// setups is how many times a run sets up (it reports their median);
	// the first serves the measured phase.
	setups int
}

var specs = []spec{
	{
		name: "lookup", cluster: true, records: 1 << 18, valueLen: 16,
		getFrac:      1,
		scheduleRate: 6500, totalRate: 6500, segments: 10, setups: 5,
	},
	{
		name: "mixed", cluster: true, cache: true, records: 1 << 16, valueLen: 64,
		getFrac: 0.70, insertFrac: 0.20, deleteFrac: 0.05,
		readSet: 2048, zipfS: 1.2, rangeSpan: 0.002,
		scheduleRate: 9000, totalRate: 9000, segments: 10, setups: 5,
	},
}

// embedded replays the mixed schedule and data over dht.Local.
func embeddedSpec() spec {
	s := specByName("mixed")
	s.name = "embedded"
	s.cluster = false
	s.totalRate = 210000
	s.segments = 1
	s.setups = 0
	return s
}

func specByName(name string) spec {
	if name == "embedded" {
		return embeddedSpec()
	}
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return spec{}
}

// Index op kinds in a schedule.
const (
	opGet = iota
	opInsert
	opDelete
	opRange
	numOps
)

var opNames = [numOps]string{"get", "insert", "delete", "range"}

// op is one scheduled index operation. For a range, key and hi bound
// [key, hi) and must counts the loaded keys inside that no delete in the
// schedule removes: every one of them must come back.
type op struct {
	kind int
	key  float64
	hi   float64
	must int
}

// dataset is a workload's inputs, all drawn from the seed.
type dataset struct {
	recs     []lht.Record        // bulk-loaded, sorted by key
	keys     map[float64]keyInfo // every loaded or inserted key
	schedule []op
	hotShare float64 // share of gets that target the most-read key
	warm     []float64
}

// keyInfo is what a dataset knows about one key.
type keyInfo struct {
	val     []byte // the value the index must return for the key
	loaded  bool   // bulk-loaded, as opposed to inserted by the schedule
	deleted bool   // deleted by the schedule
}

// valueFor derives a record's value from the seed and the record's draw
// index, so answers can be checked byte for byte.
func valueFor(seed int64, i, n int) []byte {
	v := make([]byte, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)
	for j := 0; j < n; j += 8 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[j:], w[:])
	}
	return v
}

// build draws the workload's data and a schedule of nOps ops from seed.
func (s spec) build(seed int64, nOps int) (*dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{keys: make(map[float64]keyInfo, s.records+nOps)}
	fresh := func() float64 {
		for {
			k := rng.Float64()
			if _, dup := d.keys[k]; !dup {
				return k
			}
		}
	}
	d.recs = make([]lht.Record, s.records)
	for i := range d.recs {
		k := fresh()
		v := valueFor(seed, i, s.valueLen)
		d.keys[k] = keyInfo{val: v, loaded: true}
		d.recs[i] = lht.Record{Key: k, Value: v}
	}
	// Loaded keys in draw order, for picking uniform and disjoint sets.
	order := make([]float64, len(d.recs))
	for i, r := range d.recs {
		order[i] = r.Key
	}
	sort.Slice(d.recs, func(i, j int) bool { return d.recs[i].Key < d.recs[j].Key })

	var readSet, deletable []float64
	var zipf *rand.Zipf
	if s.readSet > 0 {
		if s.readSet >= len(order) {
			return nil, fmt.Errorf("read set of %d keys needs more than %d records", s.readSet, len(order))
		}
		readSet, deletable = order[:s.readSet], order[s.readSet:]
		zipf = rand.NewZipf(rng, s.zipfS, 1, uint64(s.readSet-1))
	} else {
		deletable = order
	}
	reads := make(map[float64]int)
	gets := 0
	d.schedule = make([]op, 0, nOps)
	for i := 0; i < nOps; i++ {
		u := rng.Float64()
		var o op
		switch {
		case u < s.getFrac:
			o.kind = opGet
			if zipf != nil {
				o.key = readSet[zipf.Uint64()]
			} else {
				o.key = order[rng.Intn(len(order))]
			}
			reads[o.key]++
			gets++
		case u < s.getFrac+s.insertFrac:
			o.kind = opInsert
			o.key = fresh()
			d.keys[o.key] = keyInfo{val: valueFor(seed, s.records+i, s.valueLen)}
		case u < s.getFrac+s.insertFrac+s.deleteFrac:
			if len(deletable) == 0 {
				return nil, fmt.Errorf("schedule of %d ops deletes more keys than it may", nOps)
			}
			o.kind = opDelete
			o.key, deletable = deletable[0], deletable[1:]
			d.keys[o.key] = keyInfo{val: d.keys[o.key].val, loaded: true, deleted: true}
		default:
			o.kind = opRange
			o.key = rng.Float64() * (1 - s.rangeSpan)
			o.hi = o.key + s.rangeSpan
		}
		d.schedule = append(d.schedule, o)
	}
	for i := range d.schedule {
		if o := &d.schedule[i]; o.kind == opRange {
			o.must = d.mustCount(o.key, o.hi)
		}
	}
	hottest := 0
	for _, n := range reads {
		hottest = max(hottest, n)
	}
	if gets > 0 {
		d.hotShare = float64(hottest) / float64(gets)
	}
	// Warm-up reads: the whole read set, or a uniform sample of loaded
	// keys. They fill the leaf cache where it is on and open every
	// connection, and touch no key a write in the schedule changes.
	if readSet != nil {
		d.warm = readSet
	} else {
		for i := 0; i < 1000 && i < len(order); i++ {
			d.warm = append(d.warm, order[rng.Intn(len(order))])
		}
	}
	return d, nil
}

// mustCount counts the loaded keys in [lo, hi) the schedule never
// deletes.
func (d *dataset) mustCount(lo, hi float64) int {
	i := sort.Search(len(d.recs), func(i int) bool { return d.recs[i].Key >= lo })
	n := 0
	for ; i < len(d.recs) && d.recs[i].Key < hi; i++ {
		if !d.keys[d.recs[i].Key].deleted {
			n++
		}
	}
	return n
}

// checkRange verifies one range answer: every record inside [o.key,
// o.hi), no key twice, every record a loaded or inserted key with its
// value, and every loaded key the schedule never deletes present. The
// range API promises a set of records, not an order, so the answer is
// checked in key order; sorted reports whether it came back that way.
func (d *dataset) checkRange(o op, got []lht.Record) (sorted bool, err error) {
	byKey := func(a, b lht.Record) int { return cmp.Compare(a.Key, b.Key) }
	sorted = slices.IsSortedFunc(got, byKey)
	if !sorted {
		got = slices.Clone(got)
		slices.SortFunc(got, byKey)
	}
	must := 0
	for i, r := range got {
		if r.Key < o.key || r.Key >= o.hi {
			return sorted, fmt.Errorf("range [%v, %v): key %v outside", o.key, o.hi, r.Key)
		}
		if i > 0 && r.Key == got[i-1].Key {
			return sorted, fmt.Errorf("range [%v, %v): key %v returned twice", o.key, o.hi, r.Key)
		}
		k, ok := d.keys[r.Key]
		if !ok {
			return sorted, fmt.Errorf("range [%v, %v): key %v was never stored", o.key, o.hi, r.Key)
		}
		if string(k.val) != string(r.Value) {
			return sorted, fmt.Errorf("range [%v, %v): key %v has a wrong value", o.key, o.hi, r.Key)
		}
		if k.loaded && !k.deleted {
			must++
		}
	}
	if must != o.must {
		return sorted, fmt.Errorf("range [%v, %v): %d of %d surviving loaded keys returned", o.key, o.hi, must, o.must)
	}
	return sorted, nil
}
