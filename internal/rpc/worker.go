package rpc

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/wire"
)

// WorkerConfig configures a worker daemon.
type WorkerConfig struct {
	// MasterAddr is the master's host:port.
	MasterAddr string
	// Slowdown artificially multiplies compute time (1 = full speed);
	// values > 1 make this worker a reproducible partial straggler.
	Slowdown float64
	// PerRowDelay adds a fixed virtual cost per computed row so straggler
	// effects are visible even on tiny test matrices. Zero is fine for
	// real workloads.
	PerRowDelay time.Duration
	// Exec pins this worker's kernel execution to a pool and fan-out. The
	// zero value uses the shared default pool with full fan-out (serial
	// on a single-core host); co-tenant workers in one process should cap
	// MaxFan or bring their own pool.
	Exec kernel.Exec
	// MaxResultRows bounds one Result message's row count so result
	// frames stay well under the receiver's frame limit no matter how
	// large the partition is; larger results are split into several
	// messages, which the master's gather accepts natively. Zero selects
	// 4 Mi rows (≈ 32 MiB of values).
	MaxResultRows int
	// WriteTimeout is the base per-send write deadline (scaled up with
	// payload size), mirroring MasterConfig.StallTimeout on the master
	// side; raise it together with the master's on slow links. Zero
	// selects 30 seconds.
	WriteTimeout time.Duration
}

// block is one coded partition as the transport sees it: a row-major
// rows×cols slab of elements.
type block[E elem] struct {
	rows, cols int
	data       []E
}

// partBuild is a streamed partition being assembled from chunks.
type partBuild[E elem] struct {
	block[E]
	seq       int // transfer sequence, echoed in every chunk ack
	remaining int // rows not yet received
}

// maxPartitionElems bounds the matrix a partition header may ask the
// worker to allocate (16 GiB of float64), rejecting corrupt or hostile
// headers before any allocation. Typed int64 so the constant (and the
// bounds arithmetic below) stays valid on 32-bit platforms, and clamped
// at init so Rows·Cols — and its byte count — always fits the platform
// int (on 386, 2³¹ elements exactly would pass an int64-only check and
// then overflow the allocation's int multiplication).
var maxPartitionElems = func() int64 {
	const want = int64(1) << 31
	if host := int64(math.MaxInt / 8); host < want {
		return host
	}
	return want
}()

// validPartitionDims is the partition header's shape guard: non-negative
// rows, positive cols, and a Rows·Cols product bounded by division so a
// hostile header cannot overflow the check into passing.
func validPartitionDims(rows, cols int) bool {
	return rows >= 0 && cols > 0 && int64(rows) <= maxPartitionElems/int64(cols)
}

// Worker is the daemon side of the runtime: it stores coded partitions
// and executes assigned row ranges on demand.
type Worker struct {
	cfg WorkerConfig
	c   *wireConn

	mu  sync.Mutex // guards both sides' partition maps
	f64 workerSide[float64]
	gf  workerSide[gf.Elem]
}

// workerSide is the worker's state for one element type.
type workerSide[E elem] struct {
	parts   map[int]*block[E]     // phase → coded partition
	pending map[int]*partBuild[E] // phase → partition mid-stream

	workPool sync.Pool // *Work slots for concurrent handlers
	resPool  sync.Pool // *Result send slots

	// matVec computes rows [lo, hi) of a rows×cols partition a against w
	// x-vectors, row-major w-wide into y: one fused sweep serves every
	// lane, and w = 1 runs the single-x kernel.
	matVec func(y, a []E, cols int, xs []E, w, lo, hi int)
	// valid reports whether streamed elements are canonical (nil: all
	// values are).
	valid func([]E) bool
}

func matVecF64(y, a []float64, cols int, xs []float64, w, lo, hi int) {
	if w == 1 {
		kernel.MatVecRange(y, a, cols, xs, lo, hi)
		return
	}
	kernel.MatVecRangeBatch(y, a, cols, xs, w, lo, hi)
}

// matVecGF is matVecF64 over the field: the Mersenne-folded kernel, with
// bit-exact results on every backend and banding.
func matVecGF(y, a []gf.Elem, cols int, xs []gf.Elem, w, lo, hi int) {
	if w == 1 {
		kernel.GFMatVecMod31(gf.AsUint32s(y), gf.AsUint32s(a), cols, gf.AsUint32s(xs), lo, hi)
		return
	}
	kernel.GFMatVecBatchMod31(gf.AsUint32s(y), gf.AsUint32s(a), cols, gf.AsUint32s(xs), w, lo, hi)
}

// NewWorker dials the master, performs the handshake, and sends the hello.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Slowdown <= 0 {
		cfg.Slowdown = 1
	}
	if cfg.MaxResultRows <= 0 {
		cfg.MaxResultRows = 4 << 20
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultStallTimeout
	}
	nc, err := net.Dial("tcp", cfg.MasterAddr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial master: %w", err)
	}
	if err := wire.WriteHandshake(nc, wire.VersionWire); err != nil {
		nc.Close()
		return nil, err
	}
	w := newWorker(cfg, newWireConn(nc, cfg.WriteTimeout))
	if err := w.c.sendHello(&Hello{Slowdown: cfg.Slowdown}); err != nil {
		w.c.close()
		return nil, err
	}
	return w, nil
}

// newWorker builds a worker speaking over c.
func newWorker(cfg WorkerConfig, c *wireConn) *Worker {
	return &Worker{
		cfg: cfg,
		c:   c,
		f64: workerSide[float64]{parts: map[int]*block[float64]{}, pending: map[int]*partBuild[float64]{}, matVec: matVecF64},
		gf: workerSide[gf.Elem]{parts: map[int]*block[gf.Elem]{}, pending: map[int]*partBuild[gf.Elem]{},
			matVec: matVecGF, valid: gf.Valid},
	}
}

// Close tears down the worker's connection immediately: a blocked Run
// returns with the connection error. It is how a driver retires a worker
// in place of a process kill — chaos tests and the failover example use
// it to simulate a worker dying mid-job. Close is idempotent.
func (w *Worker) Close() error { return w.c.close() }

// Run processes messages until shutdown or connection loss. Work requests
// are served concurrently so a reassignment can overtake a slow round.
func (w *Worker) Run() error {
	defer w.c.close()
	msg := &Msg{}
	for {
		if err := w.c.recv(msg); err != nil {
			return err
		}
		var err error
		gfElem := msg.Elem == wire.ElemGF
		switch msg.Type {
		case wire.TypePartitionStart:
			if gfElem {
				err = startPartition(w, &w.gf, &msg.PartStart)
			} else {
				err = startPartition(w, &w.f64, &msg.PartStart)
			}
		case wire.TypePartitionChunk:
			if gfElem {
				err = storeChunk(w, &w.gf, msg)
			} else {
				err = storeChunk(w, &w.f64, msg)
			}
		case wire.TypeWork:
			// Hand the assignment to a concurrent handler by swapping the
			// message's Work with a pooled slot: ownership of the decoded
			// slices moves without copying, and the next recv reuses the
			// slot's old capacity.
			if gfElem {
				job := getSlot[Work[gf.Elem]](&w.gf.workPool)
				*job, msg.GFWork = msg.GFWork, *job
				go handleWork(w, &w.gf, job)
			} else {
				job := getSlot[Work[float64]](&w.f64.workPool)
				*job, msg.Work = msg.Work, *job
				go handleWork(w, &w.f64, job)
			}
		case wire.TypePing:
			// Heartbeat: answer immediately from the receive loop. Pong
			// sends share the connection's write mutex with result sends,
			// so a busy compute round delays the answer by at most one
			// in-flight frame — size the master's miss budget accordingly.
			err = w.c.sendSignal(wire.TypePong)
		case wire.TypePong:
			// Workers never solicit pongs; tolerate one anyway.
		case wire.TypeShutdown:
			return nil
		default:
			return fmt.Errorf("rpc: worker got unexpected frame type %d", msg.Type)
		}
		if err != nil {
			return err
		}
	}
}

// startPartition allocates the destination matrix of a streamed
// partition. Chunks decode straight into it; the partition becomes
// visible to work requests only once every row has arrived.
func startPartition[E elem](w *Worker, s *workerSide[E], ps *PartitionStart) error {
	if !validPartitionDims(ps.Rows, ps.Cols) {
		return fmt.Errorf("rpc: partition start %dx%d rejected", ps.Rows, ps.Cols)
	}
	b := &partBuild[E]{block: block[E]{rows: ps.Rows, cols: ps.Cols, data: make([]E, ps.Rows*ps.Cols)},
		seq: ps.Seq, remaining: ps.Rows}
	w.mu.Lock()
	// The master serializes transfers per connection (both element types
	// share the per-conn transfer lock), so every build still pending when
	// a new stream starts belongs to an abandoned transfer. Dropping them
	// all bounds the memory pinned by aborted transfers to a single build.
	clear(w.f64.pending)
	clear(w.gf.pending)
	if b.remaining == 0 {
		s.parts[ps.Phase] = &b.block
	} else {
		s.pending[ps.Phase] = b
	}
	w.mu.Unlock()
	return nil
}

// storeChunk decodes one row band straight into the partition matrix and
// returns a credit to the master's streaming window. The master streams
// rows strictly in order, so the chunk must start exactly where the
// previous one ended: without this, a duplicate or overlapping chunk could
// drive remaining to zero and publish a partition whose uncovered rows
// are silently zero — corrupt results instead of a protocol error. GF
// chunks must also be canonical: the worker's Mersenne-folded mat-vec
// bounds its intermediate arithmetic on every element being < P.
func storeChunk[E elem](w *Worker, s *workerSide[E], msg *Msg) error {
	pc := &msg.PartChunk
	w.mu.Lock()
	b := s.pending[pc.Phase]
	w.mu.Unlock()
	if b == nil {
		return fmt.Errorf("rpc: chunk for phase %d with no partition in progress", pc.Phase)
	}
	if pc.Seq != b.seq {
		return fmt.Errorf("rpc: chunk seq %d for phase %d, transfer in progress is seq %d", pc.Seq, pc.Phase, b.seq)
	}
	if pc.Lo < 0 || pc.Hi > b.rows || pc.Lo >= pc.Hi {
		return fmt.Errorf("rpc: chunk rows [%d,%d) outside partition [0,%d)", pc.Lo, pc.Hi, b.rows)
	}
	if got := b.rows - b.remaining; pc.Lo != got {
		return fmt.Errorf("rpc: chunk rows [%d,%d) out of order, expected start %d", pc.Lo, pc.Hi, got)
	}
	dst := b.data[pc.Lo*b.cols : pc.Hi*b.cols]
	if err := chunkInto(msg, dst); err != nil {
		return err
	}
	if s.valid != nil && !s.valid(dst) {
		return fmt.Errorf("rpc: chunk rows [%d,%d) carry non-canonical field elements", pc.Lo, pc.Hi)
	}
	b.remaining -= pc.Hi - pc.Lo
	if err := w.c.sendPartitionAck(pc.Phase, b.seq); err != nil {
		return err
	}
	if b.remaining <= 0 {
		w.mu.Lock()
		s.parts[pc.Phase] = &b.block
		delete(s.pending, pc.Phase)
		w.mu.Unlock()
	}
	return nil
}

// getSlot returns a pooled message slot, minting one on a pool miss.
//
//s2c2:noalloc
func getSlot[T any](p *sync.Pool) *T {
	if v := p.Get(); v != nil {
		return v.(*T)
	}
	// Pool miss: mints the slot the pool will recycle from then on.
	//s2c2:waive noalloc
	return new(T)
}

// matVecChunk sizes row chunks for a width-w mat-vec sweep through the
// active kernel backend's per-chunk flop target (each row costs 2·cols·w
// flops), so vector backends get proportionally larger bands.
func matVecChunk(cols, w int) int {
	return kernel.ChunkRows(2 * cols * w)
}

// handleWork computes the assigned rows of this worker's partition into a
// pooled result slot (handleWork runs concurrently, so per-goroutine
// storage is borrowed, not owned) returned to the pool once the
// synchronous send completes — the worker side of a steady-state round
// allocates nothing either. A corrupt assignment — an x length that does
// not match the partition, or a range outside its rows — is dropped: the
// master times the worker out and reassigns.
func handleWork[E elem](w *Worker, s *workerSide[E], job *Work[E]) {
	defer s.workPool.Put(job)
	w.mu.Lock()
	part := s.parts[job.Phase]
	w.mu.Unlock()
	if part == nil {
		return // partition not yet delivered; master will time us out
	}
	bw := job.W
	if bw < 1 || len(job.X) != bw*part.cols {
		return
	}
	start := time.Now()
	res := getSlot[Result[E]](&s.resPool)
	defer s.resPool.Put(res)
	// Reset every scalar field: a pooled slot may carry Partial=true from
	// a split send whose error path skipped the final flush.
	res.Job, res.Iter, res.Phase, res.Worker, res.Partial = job.Job, job.Iter, job.Phase, 0, false
	res.RowWidth = bw
	res.Ranges = coding.AppendNormalizeRanges(res.Ranges[:0], job.Ranges)
	for _, r := range res.Ranges {
		if r.Lo < 0 || r.Hi > part.rows {
			return
		}
	}
	total := coding.TotalRows(res.Ranges)
	res.Values = kernel.GrowSlice(res.Values, total*bw)
	at := 0
	for _, r := range res.Ranges {
		seg := res.Values[at : at+r.Len()*bw]
		lo := r.Lo
		// Band-split the assigned rows on the worker's configured pool;
		// on a one-core host (or MaxFan 1) this degenerates to the plain
		// serial sweep.
		w.cfg.Exec.For(r.Len(), matVecChunk(part.cols, bw), func(clo, chi int) {
			s.matVec(seg[clo*bw:chi*bw], part.data, part.cols, job.X, bw, lo+clo, lo+chi)
		})
		at += r.Len() * bw
	}
	elapsed := time.Since(start)
	res.ComputeNanos = int64(elapsed)
	// Straggler emulation: stretch compute time by the slowdown factor
	// plus the per-row floor.
	delay := time.Duration(float64(elapsed)*(w.cfg.Slowdown-1) +
		float64(w.cfg.PerRowDelay)*float64(total)*w.cfg.Slowdown)
	if delay > 0 {
		time.Sleep(delay)
	}
	sendResultBounded(w, s, res) //nolint:errcheck // conn errors surface in Run
}

// splitResultRanges is the bounded-result segmentation algorithm: it walks
// ranges in range-aligned segments of at most maxRows rows, calling
// emit(seg, at, rows, last) per segment — seg is the segment's range list
// (aliasing scratch), at the row offset into the concatenated values, last
// whether this segment completes the result (only that one clears the
// Partial flag; the master counts the worker as responded on it). It stops
// on the first emit error and returns the scratch slice for capacity
// reuse.
func splitResultRanges(ranges []coding.Range, total, maxRows int, scratch []coding.Range,
	emit func(seg []coding.Range, at, rows int, last bool) error) ([]coding.Range, error) {
	at, rows := 0, 0 // consumed offset into the values, rows in the open segment
	seg := scratch[:0]
	flush := func() error {
		err := emit(seg, at, rows, at+rows >= total)
		at += rows
		rows = 0
		seg = seg[:0]
		return err
	}
	for _, r := range ranges {
		lo := r.Lo
		for lo < r.Hi {
			take := r.Hi - lo
			if take > maxRows-rows {
				take = maxRows - rows
			}
			seg = append(seg, coding.Range{Lo: lo, Hi: lo + take})
			rows += take
			lo += take
			if rows == maxRows {
				if err := flush(); err != nil {
					return seg, err
				}
			}
		}
	}
	if rows > 0 {
		if err := flush(); err != nil {
			return seg, err
		}
	}
	return seg, nil
}

// boundedRows is the per-message row cap for a width-wide result: the
// configured MaxResultRows budget counts values, so batched rounds split
// at maxRows/width rows (floored at 1 — a single row always ships whole,
// matching the one-row-chunk escape of partition streaming).
func boundedRows(maxRows, width int) int {
	rows := maxRows / width
	if rows < 1 {
		rows = 1
	}
	return rows
}

// sendResultBounded sends res, splitting it into range-aligned segments
// of at most cfg.MaxResultRows values when necessary so result frames
// never outgrow the receiver's frame limit. Segments of a batched result
// carry whole rows — all RowWidth lanes of a row travel in one message.
func sendResultBounded[E elem](w *Worker, s *workerSide[E], res *Result[E]) error {
	wd := res.RowWidth
	maxRows := boundedRows(w.cfg.MaxResultRows, wd)
	total := coding.TotalRows(res.Ranges)
	if total <= maxRows {
		return sendResult(w.c, res)
	}
	sub := getSlot[Result[E]](&s.resPool)
	sub.Job, sub.Iter, sub.Phase, sub.Worker = res.Job, res.Iter, res.Phase, res.Worker
	sub.ComputeNanos, sub.RowWidth = res.ComputeNanos, wd
	scratch, err := splitResultRanges(res.Ranges, total, maxRows, sub.Ranges[:0],
		func(seg []coding.Range, at, rows int, last bool) error {
			sub.Ranges = seg
			sub.Partial = !last
			sub.Values = res.Values[at*wd : (at+rows)*wd]
			return sendResult(w.c, sub)
		})
	sub.Ranges = scratch
	// sub.Values aliased segments of res.Values; detach before pooling so
	// two pooled results can never share a backing array.
	sub.Values = nil
	s.resPool.Put(sub)
	return err
}
