// Package rpc is the real-network runtime of the system: a master and
// worker speaking a framed binary protocol over TCP (stdlib net only). It
// mirrors the paper's implementation (§6): the master encodes the data
// once and streams coded partitions to the workers in bounded, credit-
// controlled chunks; each iteration broadcasts the input vector together
// with per-worker S2C2 work assignments; workers run the coded kernel over
// their assigned row ranges and stream results back; the master measures
// per-worker response times (the predictor's input), applies the §4.3
// timeout, reassigns pending coverage, and decodes.
//
// One round path serves both element types — float64 and exact
// GF(2³¹−1) — type-parameterized over elem. Every connection opens with
// the wire-package handshake (wire.VersionWire) and speaks the
// length-prefixed binary frames of internal/wire: per-connection buffers
// are reused across messages, payloads decode straight into caller-owned
// storage, and the steady-state network round allocates nothing on the
// master.
//
// Workers accept an artificial slowdown factor so straggler scenarios are
// reproducible on a laptop (the controlled-cluster methodology of §6.5).
package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/wire"
)

// elem is the element type of a round: float64 rows, or exact GF(2³¹−1)
// field elements.
type elem interface{ float64 | gf.Elem }

// Hello is the worker's first message after the transport handshake.
type Hello struct {
	// Slowdown is the worker's self-reported artificial slowdown factor
	// (1 = full speed); used only for logging/experiments.
	Slowdown float64
}

// PartitionStart announces a streamed partition: the worker allocates the
// Rows×Cols destination matrix and expects chunks covering every row.
// Seq identifies this transfer; chunks carry it and acks echo it, so
// credits from an aborted earlier transfer can never be mistaken for this
// one's (they would otherwise inflate the flow-control window or fail a
// healthy later transfer).
type PartitionStart struct {
	Phase     int
	Seq       int
	Rows      int
	Cols      int
	ChunkRows int // row granularity the master will stream at (informational)
}

// PartitionChunk carries rows [Lo, Hi) of a streamed partition. The row
// data stays in the receive buffer until the worker decodes it straight
// into the partition matrix (chunkInto).
type PartitionChunk struct {
	Phase  int
	Seq    int
	Lo, Hi int
}

// PartitionAck acknowledges one stored chunk, returning a flow-control
// credit to the master's streaming window for transfer (Phase, Seq).
type PartitionAck struct {
	Phase int
	Seq   int
}

// Work assigns row ranges for one round. W is the round's batch width:
// the number of input vectors concatenated in X (x_l at
// X[l*cols : (l+1)*cols]); a single-x round is W = 1. Job names the
// serving job the round belongs to (0 is the master's default job).
type Work[E elem] struct {
	Job    int
	Iter   int
	Phase  int
	W      int
	X      []E
	Ranges []coding.Range
}

// Result returns the computed rows, RowWidth values per row (lane l of
// covered row r at Values[r*RowWidth+l]). A result larger than the
// worker's MaxResultRows arrives as several messages; every segment but
// the last sets Partial, so the master counts the worker as responded —
// and records its response time for the §4.3 timeout and the speed
// predictor — only when the full result has been delivered. Job echoes
// the Work's job id so the master's read loop can route the result.
type Result[E elem] struct {
	Job          int
	Iter         int
	Phase        int
	Worker       int
	Partial      bool
	RowWidth     int
	Ranges       []coding.Range
	Values       []E
	ComputeNanos int64
}

// Msg is a reusable receive slot: wireConn.recv decodes the next frame
// into it, overwriting slice fields in place (capacity is retained across
// messages). Elem says which of the element-typed fields a Work, Result,
// PartitionStart or PartitionChunk frame filled. A message that must
// outlive the next recv — a Work handed to a concurrent handler, a Result
// queued for the round — is transferred out by swapping structs with a
// pooled instance, which moves slice ownership without copying.
type Msg struct {
	Type      wire.Type
	Elem      wire.Elem
	Hello     Hello
	PartStart PartitionStart
	PartChunk PartitionChunk
	PartAck   PartitionAck
	Work      Work[float64]
	GFWork    Work[gf.Elem]
	Result    Result[float64]
	GFResult  Result[gf.Elem]

	// chunk holds the undecoded row payload of a PartitionChunk until
	// chunkInto drains it into the destination rows.
	chunk *wire.Payload
}

var errNoChunk = errors.New("rpc: no pending chunk payload")

// chunkInto decodes the pending partition chunk's row data into dst, the
// caller-owned matrix rows [Lo, Hi) — the only copy the data makes after
// the socket read. It drains the chunk: a second call (or a call on a
// message that is not a partition chunk) is an error.
//
//s2c2:noalloc
func chunkInto[E elem](m *Msg, dst []E) error {
	if m.chunk == nil {
		return errNoChunk
	}
	p := m.chunk
	m.chunk = nil
	return wire.ElemsInto(p, dst)
}

// maxRPCFrame is the frame-body cap the rpc transport accepts — larger
// than wire.DefaultMaxFrame so a single partition row, work broadcast, or
// result segment of an extremely wide matrix (up to 128 Mi float64s)
// still fits one frame, while corrupt or hostile length prefixes are
// still rejected before any buffer is sized to them.
const maxRPCFrame = 1 << 30

// wireConn is the message layer over one connection. One Writer (guarded
// by mu) and one Reader per connection; both reuse their buffers across
// messages, so a steady-state round performs no per-message allocation.
// Sends may be called from multiple goroutines; recv only from the
// connection's single reader goroutine.
//
// writeTimeout bounds every frame write: a peer that stops reading
// (frozen process, full socket buffer) makes sends fail with a deadline
// error instead of blocking forever while holding the write mutex — which
// would otherwise wedge rounds, partition transfers, and even Shutdown's
// best-effort goodbye.
type wireConn struct {
	c            net.Conn
	writeTimeout time.Duration

	mu sync.Mutex // serializes frame writes
	w  *wire.Writer
	r  *wire.Reader

	closeOnce sync.Once
	closeErr  error
}

func newWireConn(c net.Conn, writeTimeout time.Duration) *wireConn {
	r := wire.NewReader(bufio.NewReaderSize(c, 64<<10))
	r.SetMaxFrame(maxRPCFrame)
	return &wireConn{c: c, writeTimeout: writeTimeout, w: wire.NewWriter(c), r: r}
}

// writeDeadlineFor scales a per-send write deadline with the payload —
// the base timeout plus one second per MiB — so a large frame on a slow
// link gets transfer time proportional to its size while a peer that has
// stopped reading entirely is still detected within the base timeout.
//
//s2c2:noalloc
func writeDeadlineFor(base time.Duration, payloadBytes int) time.Duration {
	return base + time.Duration(payloadBytes>>20)*time.Second
}

// end finishes the frame under construction and flushes it to the socket
// under the write deadline. A deadline failure leaves a torn frame on the
// stream, so the error is fatal for the connection (callers abort and the
// peer's reader fails on the truncation).
//
//s2c2:noalloc
func (c *wireConn) end() error {
	if c.c != nil && c.writeTimeout > 0 {
		d := writeDeadlineFor(c.writeTimeout, c.w.PendingBytes())
		c.c.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck
	}
	return c.w.End()
}

func (c *wireConn) sendHello(h *Hello) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeHello)
	c.w.Float64(h.Slowdown)
	return c.end()
}

// sendSignal sends an empty-bodied frame: Shutdown, or the Ping/Pong
// heartbeat pair, which costs a few bytes per interval.
//
//s2c2:noalloc
func (c *wireConn) sendSignal(t wire.Type) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(t)
	return c.end()
}

// sendWork frames an assignment: element kind, job id, iter, phase,
// width, the concatenated x-vectors, and the ranges.
//
//s2c2:noalloc
func sendWork[E elem](c *wireConn, wk *Work[E]) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeWork)
	c.w.Uvarint(uint64(wire.KindOf[E]()))
	c.w.Int(wk.Job)
	c.w.Int(wk.Iter)
	c.w.Int(wk.Phase)
	c.w.Int(wk.W)
	wire.PutElems(c.w, wk.X)
	writeRanges(c.w, wk.Ranges)
	return c.end()
}

// sendResult frames a result (or one segment of a split result).
//
//s2c2:noalloc
func sendResult[E elem](c *wireConn, r *Result[E]) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeResult)
	c.w.Uvarint(uint64(wire.KindOf[E]()))
	c.w.Int(r.Job)
	c.w.Int(r.Iter)
	c.w.Int(r.Phase)
	c.w.Int(r.Worker)
	partial := uint64(0)
	if r.Partial {
		partial = 1
	}
	c.w.Uvarint(partial)
	c.w.Uvarint(uint64(r.ComputeNanos))
	c.w.Int(r.RowWidth)
	writeRanges(c.w, r.Ranges)
	wire.PutElems(c.w, r.Values)
	return c.end()
}

func (c *wireConn) sendPartitionStart(kind wire.Elem, p *PartitionStart) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionStart)
	c.w.Uvarint(uint64(kind))
	c.w.Int(p.Phase)
	c.w.Int(p.Seq)
	c.w.Int(p.Rows)
	c.w.Int(p.Cols)
	c.w.Int(p.ChunkRows)
	return c.end()
}

//s2c2:noalloc
func sendChunk[E elem](c *wireConn, phase, seq, lo, hi int, data []E) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionChunk)
	c.w.Uvarint(uint64(wire.KindOf[E]()))
	c.w.Int(phase)
	c.w.Int(seq)
	c.w.Int(lo)
	c.w.Int(hi)
	wire.PutElems(c.w, data)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) sendPartitionAck(phase, seq int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionAck)
	c.w.Int(phase)
	c.w.Int(seq)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) recv(m *Msg) error {
	typ, p, err := c.r.Next()
	if err != nil {
		return err
	}
	m.Type, m.chunk = typ, nil
	switch typ {
	case wire.TypeHello:
		m.Hello.Slowdown = p.Float64()
	case wire.TypeWork:
		if m.Elem = readElem(p); m.Elem == wire.ElemFloat64 {
			readWork(p, &m.Work)
		} else {
			readWork(p, &m.GFWork)
		}
	case wire.TypeResult:
		if m.Elem = readElem(p); m.Elem == wire.ElemFloat64 {
			readResult(p, &m.Result)
		} else {
			readResult(p, &m.GFResult)
		}
	case wire.TypePartitionStart:
		m.Elem = readElem(p)
		m.PartStart.Phase = p.Int()
		m.PartStart.Seq = p.Int()
		m.PartStart.Rows = p.Int()
		m.PartStart.Cols = p.Int()
		m.PartStart.ChunkRows = p.Int()
	case wire.TypePartitionChunk:
		m.Elem = readElem(p)
		m.PartChunk.Phase = p.Int()
		m.PartChunk.Seq = p.Int()
		m.PartChunk.Lo = p.Int()
		m.PartChunk.Hi = p.Int()
		if err := p.Err(); err != nil {
			return err
		}
		// The cursor is consumed by chunkInto before the next recv on this
		// conn; recv's single-goroutine ownership makes the stash safe.
		//s2c2:waive payloadescape
		m.chunk = p // row payload decoded by chunkInto, straight into the matrix
		return nil
	case wire.TypePartitionAck:
		m.PartAck.Phase = p.Int()
		m.PartAck.Seq = p.Int()
	case wire.TypeShutdown, wire.TypePing, wire.TypePong:
	default:
		return fmt.Errorf("rpc: unknown frame type %d", typ)
	}
	return p.Err()
}

//s2c2:noalloc
func readWork[E elem](p *wire.Payload, wk *Work[E]) {
	wk.Job = readBounded(p, 0, maxJobID)
	wk.Iter = p.Int()
	wk.Phase = p.Int()
	wk.W = readBounded(p, 1, maxBatchWidth)
	wk.X = wire.Elems(p, wk.X)
	wk.Ranges = readRanges(p, wk.Ranges)
}

//s2c2:noalloc
func readResult[E elem](p *wire.Payload, r *Result[E]) {
	r.Job = readBounded(p, 0, maxJobID)
	r.Iter = p.Int()
	r.Phase = p.Int()
	r.Worker = p.Int()
	r.Partial = p.Uvarint() != 0
	r.ComputeNanos = int64(p.Uvarint())
	r.RowWidth = readBounded(p, 1, maxBatchWidth)
	r.Ranges = readRanges(p, r.Ranges)
	r.Values = wire.Elems(p, r.Values)
}

func (c *wireConn) close() error {
	// c.c is nil when the transport runs over an in-memory stream (test
	// and fuzz harnesses); there is no socket to close then.
	c.closeOnce.Do(func() {
		if c.c != nil {
			c.closeErr = c.c.Close()
		}
	})
	return c.closeErr
}

// maxBatchWidth bounds the per-row width a frame may declare. Real rounds
// batch a handful of x-vectors (DRAM-bandwidth amortization stops paying
// long before this); the bound exists so a corrupt or hostile width is
// rejected at decode, before any consistency arithmetic uses it.
const maxBatchWidth = 4096

// maxJobID bounds the job tag a frame may declare, rejecting corrupt or
// hostile ids before any routing structure is consulted.
const maxJobID = 1 << 30

// readElem decodes an element kind field; anything but the two kinds is
// malformed, rejected through the payload's sticky error like every other
// corrupt field.
//
//s2c2:noalloc
func readElem(p *wire.Payload) wire.Elem {
	k := wire.Elem(p.Uvarint())
	if k != wire.ElemFloat64 && k != wire.ElemGF {
		p.Reject()
	}
	return k
}

// readBounded decodes an int field that must lie in [lo, hi].
//
//s2c2:noalloc
func readBounded(p *wire.Payload, lo, hi int) int {
	v := p.Int()
	if v < lo || v > hi {
		p.Reject()
		return 0
	}
	return v
}

// writeRanges appends a count-prefixed list of [lo, hi) varint pairs.
//
//s2c2:noalloc
func writeRanges(w *wire.Writer, ranges []coding.Range) {
	w.Int(len(ranges))
	for _, r := range ranges {
		w.Int(r.Lo)
		w.Int(r.Hi)
	}
}

// readRanges decodes a range list, reusing dst's capacity.
//
//s2c2:noalloc
func readRanges(p *wire.Payload, dst []coding.Range) []coding.Range {
	n := p.Int()
	// Every range costs at least two payload bytes; a count the remaining
	// bytes cannot hold is corrupt, rejected before any allocation. The
	// comparison divides rather than multiplies so a hostile count cannot
	// overflow the guard.
	if p.Err() != nil || n > p.Remaining()/2 {
		p.Reject()
		return dst[:0]
	}
	dst = kernel.GrowSlice(dst, n)
	for i := range dst {
		dst[i].Lo = p.Int()
		dst[i].Hi = p.Int()
	}
	return dst
}
