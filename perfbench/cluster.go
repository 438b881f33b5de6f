package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/rpc"
)

// cluster is a master plus in-process workers on loopback. Workers join
// one at a time, so worker i holds slot i and slowdowns land where asked.
type cluster struct {
	m       *rpc.Master
	workers []*rpc.Worker
	runs    sync.WaitGroup
	relay   *relay
}

// startCluster starts a master and len(slowdown) workers; worker i
// stretches its measured compute by slowdown[i]. With withRelay set,
// every worker connects through a byte-counting relay.
func startCluster(slowdown []float64, withRelay bool) (c *cluster, err error) {
	m, err := rpc.NewMasterWithConfig(rpc.MasterConfig{Addr: "127.0.0.1:0", ReuseRound: true})
	if err != nil {
		return nil, fmt.Errorf("start master: %w", err)
	}
	c = &cluster{m: m}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	addr := m.Addr()
	if withRelay {
		if c.relay, err = newRelay(addr); err != nil {
			return c, err
		}
		addr = c.relay.addr()
	}
	for i, s := range slowdown {
		// Each worker computes serially, as one machine of the paper's
		// cluster would; the in-process workers share the host's cores.
		w, err := rpc.NewWorker(rpc.WorkerConfig{MasterAddr: addr, Slowdown: s, Exec: kernel.Serial()})
		if err != nil {
			return c, fmt.Errorf("start worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
		c.runs.Add(1)
		go func() {
			defer c.runs.Done()
			w.Run() //nolint:errcheck // returns when the master shuts down
		}()
		if err := m.WaitForWorkers(i+1, 10*time.Second); err != nil {
			return c, fmt.Errorf("worker %d join: %w", i, err)
		}
	}
	return c, nil
}

// close stops the master, the workers and the relay, and waits for every
// worker loop to return.
func (c *cluster) close() {
	c.m.Shutdown()
	for _, w := range c.workers {
		w.Close() //nolint:errcheck // tearing down
	}
	c.runs.Wait()
	if c.relay != nil {
		c.relay.close()
	}
}

// relayed returns the bytes the relay has forwarded so far (0 without one).
func (c *cluster) relayed() int64 {
	if c.relay == nil {
		return 0
	}
	return c.relay.bytes.Load()
}

// relay is a loopback TCP forwarder placed between workers and master; it
// counts every byte it forwards in either direction.
type relay struct {
	ln     net.Listener
	target string
	bytes  atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		r.conns = append(r.conns, in, out)
		r.wg.Add(2)
		r.mu.Unlock()
		go r.pipe(out, in)
		go r.pipe(in, out)
	}
}

// pipe copies src to dst, counting bytes, and closes both ends when
// either side stops so the peer copy returns too.
func (r *relay) pipe(dst, src net.Conn) {
	defer r.wg.Done()
	// The copy ends on EOF, or on an error once either end closes; the
	// link is finished either way.
	io.Copy(countingWriter{dst, &r.bytes}, src) //nolint:errcheck
	dst.Close()
	src.Close()
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	r.closed = true
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
