package dht

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// BinaryAppender is the standard library's encoding.BinaryAppender
// (Go 1.24), restated so the module builds on its declared go version:
// any type implementing one implements the other.
type BinaryAppender interface {
	// AppendBinary appends the value's binary form to b.
	AppendBinary(b []byte) ([]byte, error)
}

// Value codec ids. A substrate that ships values across processes writes
// the id in front of the value's AppendBinary bytes and hands the bytes
// back to the decoder registered under it, so ids are part of the stored
// format and must never be reused for a different type. Ids below 1<<20
// belong to this module; tests and embedding programs use larger ones.
const (
	// ValueIDBucket is the LHT leaf bucket (internal/lht).
	ValueIDBucket uint64 = 1
	// ValueIDEpochTest is the conformance battery's epoch-carrying value
	// (internal/dht/dhttest).
	ValueIDEpochTest uint64 = 2
)

type valueCodec struct {
	id     uint64
	typ    reflect.Type
	decode func([]byte) (Value, error)
}

// codecTables is a copy-on-write pair of lookup tables: registration
// swaps in fresh maps, so the per-value lookups read them without a lock.
type codecTables struct {
	byID   map[uint64]*valueCodec
	byType map[reflect.Type]*valueCodec
}

var (
	codecMu sync.Mutex
	codecs  atomic.Pointer[codecTables]
)

// RegisterValue registers T's binary codec under id: T encodes itself
// through AppendBinary and decode is the strict inverse. decode must not
// retain or alias its input, which may be a recycled network buffer.
// Call it from an init function, once per type. It panics on id 0 or when
// the id or the type is already registered with a different partner;
// registering the same pair again is a no-op.
func RegisterValue[T BinaryAppender](id uint64, decode func([]byte) (T, error)) {
	typ := reflect.TypeFor[T]()
	if id == 0 {
		panic("dht: value codec id 0 is reserved")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	old := codecs.Load()
	if old == nil {
		old = &codecTables{}
	}
	if c, ok := old.byID[id]; ok {
		if c.typ == typ {
			return
		}
		panic(fmt.Sprintf("dht: value codec id %d registered for both %v and %v", id, c.typ, typ))
	}
	if c, ok := old.byType[typ]; ok {
		panic(fmt.Sprintf("dht: value type %v registered under both id %d and %d", typ, c.id, id))
	}
	c := &valueCodec{id: id, typ: typ, decode: func(b []byte) (Value, error) { return decode(b) }}
	next := &codecTables{
		byID:   make(map[uint64]*valueCodec, len(old.byID)+1),
		byType: make(map[reflect.Type]*valueCodec, len(old.byType)+1),
	}
	for k, v := range old.byID {
		next.byID[k] = v
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	next.byID[id], next.byType[typ] = c, c
	codecs.Store(next)
}

// ValueCodec returns the registered codec id of v's dynamic type and v as
// its encoder; ok is false when the type has no registered codec.
func ValueCodec(v Value) (id uint64, enc BinaryAppender, ok bool) {
	t := codecs.Load()
	if t == nil {
		return 0, nil, false
	}
	c, ok := t.byType[reflect.TypeOf(v)]
	if !ok {
		return 0, nil, false
	}
	return c.id, v.(BinaryAppender), true
}

// DecodeValue decodes data with the decoder registered under id. An
// unknown id is an error.
func DecodeValue(id uint64, data []byte) (Value, error) {
	if t := codecs.Load(); t != nil {
		if c, ok := t.byID[id]; ok {
			return c.decode(data)
		}
	}
	return nil, fmt.Errorf("dht: no value codec registered under id %d", id)
}

// RegisteredValues returns a zero value of every registered type (a
// pointer to a fresh zero struct for pointer types), for tools that need
// a prototype of each storable type.
func RegisteredValues() []Value {
	t := codecs.Load()
	if t == nil {
		return nil
	}
	out := make([]Value, 0, len(t.byType))
	for typ := range t.byType {
		if typ.Kind() == reflect.Pointer {
			out = append(out, reflect.New(typ.Elem()).Interface())
		} else {
			out = append(out, reflect.Zero(typ).Interface())
		}
	}
	return out
}
