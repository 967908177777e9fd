package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"lht/internal/tcpnet"
)

const (
	clusterNodes    = 4
	clusterReplicas = 3
)

// cluster is a loopback tcpnet cluster and the one client handle the
// index runs over.
type cluster struct {
	srvs   []*tcpnet.Server
	client *tcpnet.Client
	wg     sync.WaitGroup
	errMu  sync.Mutex
	err    error // first Serve failure
}

// bootCluster starts clusterNodes servers on loopback and dials them on
// the binary wire with one connection per node. With st non-nil every
// server and client connection is wrapped for frame pairing.
func bootCluster(ctx context.Context, st *wireStats) (*cluster, error) {
	c := &cluster{}
	addrs := make([]string, 0, clusterNodes)
	for i := 0; i < clusterNodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = c.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		addrs = append(addrs, ln.Addr().String())
		if st != nil {
			ln = tracedListener{Listener: ln, st: st}
		}
		srv := tcpnet.NewServer()
		c.srvs = append(c.srvs, srv)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := srv.Serve(ln); err != nil {
				c.errMu.Lock()
				c.err = errors.Join(c.err, err)
				c.errMu.Unlock()
			}
		}()
	}
	cfg := tcpnet.ClusterConfig{
		Seeds:    addrs,
		Wire:     tcpnet.WireBinary,
		PoolSize: 1,
		Replicas: clusterReplicas,
	}
	if st != nil {
		cfg.Dialer = tracedDialer{st: st}
	}
	client, err := tcpnet.Dial(ctx, cfg)
	if err != nil {
		_ = c.close()
		return nil, fmt.Errorf("dial cluster: %w", err)
	}
	c.client = client
	return c, nil
}

// close stops the client and every server and waits for them.
func (c *cluster) close() error {
	var err error
	if c.client != nil {
		err = c.client.Close()
	}
	for _, s := range c.srvs {
		err = errors.Join(err, s.Close())
	}
	c.wg.Wait()
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return errors.Join(err, c.err)
}
