package dht

import (
	"errors"
	"reflect"
	"testing"
)

type codecA struct{ B byte }

func (a *codecA) AppendBinary(b []byte) ([]byte, error) { return append(b, a.B), nil }

func decodeA(data []byte) (*codecA, error) {
	if len(data) != 1 {
		return nil, errors.New("codecA: want one byte")
	}
	return &codecA{B: data[0]}, nil
}

type codecB struct{}

func (codecB) AppendBinary(b []byte) ([]byte, error) { return b, nil }

func decodeB([]byte) (codecB, error) { return codecB{}, nil }

// mustPanic reports whether f panicked.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestValueCodecRegistry(t *testing.T) {
	const idA, idB = 1<<20 + 1, 1<<20 + 2
	RegisterValue(idA, decodeA)
	RegisterValue(idA, decodeA) // the same pair again is a no-op
	RegisterValue(idB, decodeB)

	id, enc, ok := ValueCodec(&codecA{B: 7})
	if !ok || id != idA {
		t.Fatalf("ValueCodec(*codecA) = %d, %v", id, ok)
	}
	data, _ := enc.AppendBinary(nil)
	v, err := DecodeValue(id, data)
	if err != nil || !reflect.DeepEqual(v, &codecA{B: 7}) {
		t.Fatalf("DecodeValue = %#v, %v", v, err)
	}
	if _, err := DecodeValue(idA, nil); err == nil {
		t.Error("decoder error not surfaced")
	}
	if _, err := DecodeValue(1<<20+99, data); err == nil {
		t.Error("unknown id decoded")
	}
	for _, v := range []Value{codecA{}, []byte("x"), nil, 3} {
		if _, _, ok := ValueCodec(v); ok {
			t.Errorf("ValueCodec(%T) found a codec", v)
		}
	}

	mustPanic(t, "id 0", func() { RegisterValue(0, decodeA) })
	mustPanic(t, "id reuse", func() { RegisterValue(idA, decodeB) })
	mustPanic(t, "type under a second id", func() { RegisterValue(1<<20+3, decodeA) })

	protos := map[reflect.Type]Value{}
	for _, v := range RegisteredValues() {
		protos[reflect.TypeOf(v)] = v
	}
	if p := protos[reflect.TypeOf(&codecA{})]; !reflect.DeepEqual(p, &codecA{}) {
		t.Errorf("prototype of *codecA = %#v", p)
	}
	if p, ok := protos[reflect.TypeOf(codecB{})]; !ok || p != (codecB{}) {
		t.Errorf("prototype of codecB = %#v, %v", p, ok)
	}
}
