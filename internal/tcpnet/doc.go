// Package tcpnet is the real-network deployment mode: storage nodes that
// serve a key-value protocol over TCP, and a client that implements the
// dht.DHT interface over the cluster with client-side consistent hashing.
//
// The wire is the framed binary protocol (frame.go): reflection-free
// length-prefixed frames with pooled buffers, carried by a pipelined
// multiplexer (mux.go) that keeps many requests in flight per
// connection. Values cross it as tagged bytes: a []byte verbatim, and
// any other type through the binary codec it registered with
// dht.RegisterValue (the index registers its buckets). A value of an
// unregistered type is an encode error, not a silent fallback.
//
// This is the substrate behind cmd/lht-node and cmd/lht-cli: it
// demonstrates the paper's "easy to implement and deploy" claim with
// actual sockets and processes. Membership is the operator's seed list,
// grown and shrunk by the servers' gossip (membership.go); replication,
// hinted handoff and scrub re-replication are client-driven
// (replicas.go, clusterview.go). The index layer cannot tell the
// difference, which is the point of the over-DHT design.
package tcpnet
