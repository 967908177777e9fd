package main

import (
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"lht/internal/dht"
)

// frame builds one wire frame with a payload of n bytes.
func frame(id uint64, op byte, n int) []byte {
	b := make([]byte, frameHeaderLen+n)
	binary.BigEndian.PutUint32(b[0:4], uint32(9+n))
	binary.BigEndian.PutUint64(b[4:12], id)
	b[12] = op
	return b
}

type seen struct {
	id uint64
	op byte
}

func TestFrameParserChunked(t *testing.T) {
	var stream []byte
	stream = append(stream, wireMagic...)
	var want []seen
	for i := 0; i < 50; i++ {
		id, op, n := uint64(1000+i), byte(i%14), (i*37)%300
		stream = append(stream, frame(id, op, n)...)
		want = append(want, seen{id, op})
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		f := frameParser{magic: true}
		var got []seen
		rest := stream
		for len(rest) > 0 {
			n := 1 + rng.Intn(40)
			if trial == 0 {
				n = 1 // byte at a time
			}
			n = min(n, len(rest))
			if !f.feed(rest[:n], func(id uint64, op byte) { got = append(got, seen{id, op}) }) {
				t.Fatalf("trial %d: parser gave up on a well-formed stream", trial)
			}
			rest = rest[n:]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d frames, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: frame %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestFrameParserWithoutMagic(t *testing.T) {
	// Responses carry no magic; a parser allowing one must still read a
	// stream that opens straight with a frame.
	f := frameParser{magic: true}
	var n int
	f.feed(append(frame(7, 1, 3), frame(8, 1, 0)...), func(uint64, byte) { n++ })
	if n != 2 {
		t.Fatalf("parsed %d frames, want 2", n)
	}
}

func TestFrameParserRejectsUnframedStream(t *testing.T) {
	f := frameParser{magic: true}
	// A gob stream (or any garbage) shows a length field no frame has.
	junk := []byte{0xff, 0xff, 0xff, 0xff, 0x0d, 0x7f, 0x03, 0x01, 0x01, 0x02, 0xff, 0x80, 0x00}
	if f.feed(junk, func(uint64, byte) { t.Fatal("frame reported from junk") }) {
		t.Fatal("parser accepted an oversized length field")
	}
	g := frameParser{}
	short := []byte{0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	if g.feed(short, func(uint64, byte) {}) {
		t.Fatal("parser accepted a frame shorter than its header")
	}
}

// TestTracedConnPairsFrames runs requests over a loopback connection
// wrapped on both ends, answering them out of order, and checks that
// every response is paired with its request by id.
func TestTracedConnPairsFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st := &wireStats{}
	tl := tracedListener{Listener: ln, st: st}
	served := make(chan error, 1)
	go func() {
		c, err := tl.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		req := make([]byte, len(wireMagic)+2*frameHeaderLen+5)
		if _, err := io.ReadFull(c, req); err != nil {
			served <- err
			return
		}
		time.Sleep(2 * time.Millisecond)
		// Answer the second request first.
		resp := append(frame(2, byte(dht.OpPutIf), 1), frame(1, byte(dht.OpGet), 4)...)
		_, err = c.Write(resp)
		served <- err
	}()

	c, err := tracedDialer{st: st}.DialContext(context.Background(), "tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	req := append([]byte(wireMagic), frame(1, byte(dht.OpGet), 5)...)
	req = append(req, frame(2, byte(dht.OpPutIf), 0)...)
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 2*frameHeaderLen+5)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	w := st.snapshot()
	if w.broken {
		t.Fatal("a well-formed exchange was marked unparsable")
	}
	if w.frames() != 2 || w.sent[dht.OpGet] != 1 || w.sent[dht.OpPutIf] != 1 {
		t.Fatalf("sent %d frames (%d get, %d putif), want 1 of each", w.frames(), w.sent[dht.OpGet], w.sent[dht.OpPutIf])
	}
	for _, op := range []dht.OpKind{dht.OpGet, dht.OpPutIf} {
		if w.rttN[op] != 1 || w.svcN[op] != 1 {
			t.Fatalf("op %d: %d round trips and %d services, want 1 each", op, w.rttN[op], w.svcN[op])
		}
		if rtt, svc := time.Duration(w.rttNanos[op]), time.Duration(w.svcNanos[op]); svc < 2*time.Millisecond || rtt < svc {
			t.Fatalf("op %d: round trip %v, service %v: want service >= 2ms and round trip >= service", op, rtt, svc)
		}
	}
	if wantBytes := int64(len(req) + 2*frameHeaderLen + 5); w.bytes != wantBytes {
		t.Fatalf("client bytes %d, want %d", w.bytes, wantBytes)
	}
}
