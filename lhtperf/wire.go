package main

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The tcpnet binary wire opens each client connection with a 4-byte
// magic, then both directions carry length-prefixed frames:
//
//	len u32 BE | request id u64 BE | op u8 | payload (len-9 bytes)
//
// Responses echo the request's id and op. The wrappers below read only
// this fixed header and skip payloads, so a change to how values or
// payloads are encoded does not affect them. A stream they cannot parse
// marks the wire metrics unavailable; the bytes still pass through.
const (
	wireMagic      = "LHT2"
	frameHeaderLen = 13       // len + id + op
	maxFrameBody   = 64 << 20 // larger length fields mean the stream is not framed
)

// frameParser follows one direction of a framed stream.
type frameParser struct {
	magic  bool // the stream may open with wireMagic, not yet ruled in or out
	hdr    [frameHeaderLen]byte
	hdrN   int
	left   int // payload bytes of the current frame not yet seen
	id     uint64
	op     byte
	broken bool
}

// feed consumes p and calls done for every frame whose last byte is in
// p. It reports false once the stream has proved not to be framed.
func (f *frameParser) feed(p []byte, done func(id uint64, op byte)) bool {
	for len(p) > 0 && !f.broken {
		if f.left > 0 {
			n := min(f.left, len(p))
			f.left -= n
			p = p[n:]
			if f.left == 0 {
				done(f.id, f.op)
			}
			continue
		}
		n := copy(f.hdr[f.hdrN:], p)
		f.hdrN += n
		p = p[n:]
		if f.magic && f.hdrN >= len(wireMagic) {
			f.magic = false
			if string(f.hdr[:len(wireMagic)]) == wireMagic {
				rest := copy(f.hdr[:], f.hdr[len(wireMagic):f.hdrN])
				f.hdrN = rest
			}
		}
		if f.magic || f.hdrN < frameHeaderLen {
			continue
		}
		body := int(binary.BigEndian.Uint32(f.hdr[0:4]))
		if body < frameHeaderLen-4 || body > maxFrameBody {
			f.broken = true
			break
		}
		f.id = binary.BigEndian.Uint64(f.hdr[4:12])
		f.op = f.hdr[12]
		f.hdrN = 0
		f.left = body - (frameHeaderLen - 4)
		if f.left == 0 {
			done(f.id, f.op)
		}
	}
	return !f.broken
}

// perOp is a count and a total duration for each frame op byte.
type perOp struct {
	n     [256]atomic.Int64
	nanos [256]atomic.Int64
}

func (p *perOp) add(op byte, d time.Duration) {
	p.n[op].Add(1)
	p.nanos[op].Add(int64(d))
}

// wireStats is what the connection wrappers observe, on the client side
// (request frames, round trips, bytes) and the server side (service
// time per request).
type wireStats struct {
	broken atomic.Bool // a stream did not parse, or a response matched no request

	sent    [256]atomic.Int64 // client: request frames written, by op
	rtt     perOp             // client: answered requests and their round trips
	service perOp             // server: request read to response written

	clientBytes atomic.Int64 // both directions
	calls       atomic.Int64 // Read and Write calls, client and server
}

// wireCounts is a plain copy of wireStats, for window deltas.
type wireCounts struct {
	broken         bool
	sent           [256]int64
	rttN, rttNanos [256]int64
	svcN, svcNanos [256]int64
	bytes, calls   int64
}

func (s *wireStats) snapshot() wireCounts {
	c := wireCounts{
		broken: s.broken.Load(),
		bytes:  s.clientBytes.Load(),
		calls:  s.calls.Load(),
	}
	for i := 0; i < 256; i++ {
		c.sent[i] = s.sent[i].Load()
		c.rttN[i] = s.rtt.n[i].Load()
		c.rttNanos[i] = s.rtt.nanos[i].Load()
		c.svcN[i] = s.service.n[i].Load()
		c.svcNanos[i] = s.service.nanos[i].Load()
	}
	return c
}

func (a wireCounts) to(b wireCounts) wireCounts {
	d := wireCounts{
		broken: b.broken,
		bytes:  b.bytes - a.bytes,
		calls:  b.calls - a.calls,
	}
	for i := 0; i < 256; i++ {
		d.sent[i] = b.sent[i] - a.sent[i]
		d.rttN[i] = b.rttN[i] - a.rttN[i]
		d.rttNanos[i] = b.rttNanos[i] - a.rttNanos[i]
		d.svcN[i] = b.svcN[i] - a.svcN[i]
		d.svcNanos[i] = b.svcNanos[i] - a.svcNanos[i]
	}
	return d
}

// frames returns the request frames the client wrote.
func (c wireCounts) frames() int64 {
	var t int64
	for _, n := range c.sent {
		t += n
	}
	return t
}

// pending is a request frame awaiting its response.
type pending struct {
	at time.Time
	op byte
}

// tracedConn is a net.Conn that pairs request and response frames by id.
// On a client connection a frame counts as sent when the Write carrying
// its last byte starts, and as answered when the Read carrying the
// response's last byte returns; on a server connection the same two
// instants bound the service time.
type tracedConn struct {
	net.Conn
	st     *wireStats
	server bool

	mu      sync.Mutex
	in, out frameParser
	waiting map[uint64]pending
}

func newTracedConn(c net.Conn, st *wireStats, server bool) *tracedConn {
	return &tracedConn{
		Conn:    c,
		st:      st,
		server:  server,
		in:      frameParser{magic: server},
		out:     frameParser{magic: !server},
		waiting: make(map[uint64]pending),
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	// Requests are registered before they reach the socket, so a response
	// can never be read ahead of its request's entry.
	ok := c.out.feed(p, func(id uint64, op byte) {
		if c.server {
			c.pair(id, now, &c.st.service)
			return
		}
		c.waiting[id] = pending{at: now, op: op}
		c.st.sent[op].Add(1)
	})
	c.mu.Unlock()
	if !ok {
		c.st.broken.Store(true)
	}
	n, err := c.Conn.Write(p)
	c.st.calls.Add(1)
	if !c.server {
		c.st.clientBytes.Add(int64(n))
	}
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	now := time.Now()
	c.st.calls.Add(1)
	if !c.server {
		c.st.clientBytes.Add(int64(n))
	}
	c.mu.Lock()
	ok := c.in.feed(p[:n], func(id uint64, op byte) {
		if c.server {
			c.waiting[id] = pending{at: now, op: op}
			return
		}
		c.pair(id, now, &c.st.rtt)
	})
	c.mu.Unlock()
	if !ok {
		c.st.broken.Store(true)
	}
	return n, err
}

// pair closes the request waiting under id at now, adding the elapsed
// time to into under the request's op. Called with c.mu held.
func (c *tracedConn) pair(id uint64, now time.Time, into *perOp) {
	w, ok := c.waiting[id]
	if !ok {
		c.st.broken.Store(true)
		return
	}
	delete(c.waiting, id)
	into.add(w.op, now.Sub(w.at))
}

// tracedListener wraps every accepted server connection.
type tracedListener struct {
	net.Listener
	st *wireStats
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, l.st, true), nil
}

// tracedDialer is the client's transport factory, wrapping every
// connection it dials.
type tracedDialer struct {
	st *wireStats
}

func (d tracedDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	var nd net.Dialer
	c, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return newTracedConn(c, d.st, false), nil
}
