package rpc

// gffuzz_test.go: native fuzz targets and deterministic edge-case tests
// for the frame decoders and the worker's ingest paths — hostile element
// counts and widths, truncation at every cut point, duplicate/out-of-order
// chunk streams, and out-of-range work must surface as protocol errors or
// dropped work, never as panics or silently-corrupt partitions.

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/wire"
)

// dialVictim starts a real worker against a hand-rolled master socket
// and returns the accepted connection (handshake and hello consumed) and
// the worker's exit channel.
func dialVictim(t *testing.T) (*wireConn, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done := make(chan error, 1)
	go func() {
		w, err := NewWorker(WorkerConfig{MasterAddr: ln.Addr().String()})
		if err != nil {
			done <- err
			return
		}
		done <- w.Run()
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	mc := &wireConn{w: wire.NewWriter(c), r: wire.NewReader(c)}
	var msg Msg
	if err := mc.recv(&msg); err != nil || msg.Type != wire.TypeHello {
		t.Fatalf("hello: %v %v", msg.Type, err)
	}
	return mc, done
}

func sendGFStart(t *testing.T, mc *wireConn, phase, seq, rows, cols, chunkRows int) {
	t.Helper()
	ps := &PartitionStart{Phase: phase, Seq: seq, Rows: rows, Cols: cols, ChunkRows: chunkRows}
	if err := mc.sendPartitionStart(wire.ElemGF, ps); err != nil {
		t.Fatal(err)
	}
}

func sendGFChunk(t *testing.T, mc *wireConn, phase, seq, lo, hi int, vals []gf.Elem) {
	t.Helper()
	if err := sendChunk(mc, phase, seq, lo, hi, vals); err != nil {
		t.Fatal(err)
	}
}

func expectWorkerError(t *testing.T, done chan error, want string) {
	t.Helper()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("worker exited with %v, want error containing %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("worker did not exit (want error containing %q)", want)
	}
}

// TestWorkerRejectsOutOfOrderGFChunks is the GF mirror of the float64
// sequential-streaming guard: a duplicate chunk could otherwise drive the
// remaining-row count to zero and publish a partition whose uncovered
// rows are silently zero.
func TestWorkerRejectsOutOfOrderGFChunks(t *testing.T) {
	mc, done := dialVictim(t)
	sendGFStart(t, mc, 0, 1, 4, 1, 2)
	sendGFChunk(t, mc, 0, 1, 0, 2, []gf.Elem{1, 2})
	sendGFChunk(t, mc, 0, 1, 0, 2, []gf.Elem{1, 2}) // duplicate
	expectWorkerError(t, done, "out of order")
}

// TestWorkerRejectsNonCanonicalGFChunk pins the canonicality guard: a
// lane ≥ P would break the Mersenne-folded arithmetic's overflow bounds,
// so it must be a protocol error at ingest.
func TestWorkerRejectsNonCanonicalGFChunk(t *testing.T) {
	mc, done := dialVictim(t)
	sendGFStart(t, mc, 0, 1, 2, 1, 2)
	sendGFChunk(t, mc, 0, 1, 0, 2, []gf.Elem{gf.Elem(gf.P), 0}) // P itself is out of range
	expectWorkerError(t, done, "non-canonical")
}

// TestWorkerRejectsHostileGFPartitionStart pins the dimension guard: a
// header whose Rows·Cols exceeds the element bound is rejected before any
// allocation (the bounds check divides, so it cannot be overflowed).
func TestWorkerRejectsHostileGFPartitionStart(t *testing.T) {
	mc, done := dialVictim(t)
	sendGFStart(t, mc, 0, 1, 1<<20, 1<<20, 64) // 2⁴⁰ elements
	expectWorkerError(t, done, "rejected")
}

// TestWorkerRejectsGFChunkCountMismatch pins the exact-count contract of
// the zero-copy chunk decode: a chunk claiming rows [0,2) of a 1-column
// partition but carrying three elements must fail, not spill.
func TestWorkerRejectsGFChunkCountMismatch(t *testing.T) {
	mc, done := dialVictim(t)
	sendGFStart(t, mc, 0, 1, 4, 1, 2)
	sendGFChunk(t, mc, 0, 1, 0, 2, []gf.Elem{1, 2, 3}) // 3 values for 2 rows
	expectWorkerError(t, done, "malformed")
}

// TestWorkerDropsOutOfRangeWork pins the work handler's range guard on
// both element kinds: against a 4×2 partition, a Work whose ranges leave
// rows [0, 4) is dropped — no result and no out-of-bounds kernel call,
// which would panic and take the worker process down — while a valid
// Work gets its result.
func TestWorkerDropsOutOfRangeWork(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		checkOutOfRangeWork(t, func(w *Worker) *workerSide[float64] { return &w.f64 })
	})
	t.Run("gf", func(t *testing.T) {
		checkOutOfRangeWork(t, func(w *Worker) *workerSide[gf.Elem] { return &w.gf })
	})
}

func checkOutOfRangeWork[E elem](t *testing.T, side func(*Worker) *workerSide[E]) {
	var out bytes.Buffer
	w := newWorker(WorkerConfig{Slowdown: 1, MaxResultRows: 4 << 20}, &wireConn{w: wire.NewWriter(&out)})
	s := side(w)
	s.parts[0] = &block[E]{rows: 4, cols: 2, data: make([]E, 8)}
	x := make([]E, 2)
	for _, rg := range []coding.Range{{Lo: 2, Hi: 9}, {Lo: 4, Hi: 5}, {Lo: 0, Hi: 1 << 40}} {
		handleWork(w, s, &Work[E]{W: 1, X: x, Ranges: []coding.Range{rg}})
		if out.Len() != 0 {
			t.Fatalf("range [%d,%d) of a 4-row partition produced a result", rg.Lo, rg.Hi)
		}
	}
	handleWork(w, s, &Work[E]{Iter: 9, W: 1, X: x, Ranges: []coding.Range{{Lo: 0, Hi: 4}}})
	tc := &wireConn{r: wire.NewReader(&out)}
	var msg Msg
	if err := tc.recv(&msg); err != nil || msg.Type != wire.TypeResult {
		t.Fatalf("valid work: frame %d, err %v; want a result", msg.Type, err)
	}
	if r := msgResult[E](&msg); r.Iter != 9 || len(r.Values) != 4 {
		t.Fatalf("valid work answered with iter %d, %d values", r.Iter, len(r.Values))
	}
}

// buildResultStream encodes one valid result frame at width w.
func buildResultStream[E elem](tb testing.TB, w int, vals []E) []byte {
	return encodeResults(tb, []*Result[E]{{
		Job: 1, Iter: 3, Phase: 1, Worker: 2, RowWidth: w, ComputeNanos: 12345,
		Ranges: []coding.Range{{Lo: 0, Hi: len(vals) / w}}, Values: vals,
	}})
}

// TestGFResultFrameTruncatedAtEveryCut cuts a valid GF result frame at
// every byte boundary: the master-side decode must error (truncation or
// EOF), never decode garbage or panic.
func TestGFResultFrameTruncatedAtEveryCut(t *testing.T) {
	full := buildResultStream(t, 1, []gf.Elem{1, 2, 3, gf.Elem(gf.P - 1)})
	for cut := 0; cut < len(full); cut++ {
		tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(full[:cut]))}
		msg := &Msg{}
		if err := tc.recv(msg); err == nil {
			t.Fatalf("cut at %d decoded without error", cut)
		}
	}
	// The uncut frame decodes cleanly.
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(full))}
	msg := &Msg{}
	if err := tc.recv(msg); err != nil || msg.Type != wire.TypeResult || msg.Elem != wire.ElemGF {
		t.Fatalf("full frame: type %d elem %d err %v", msg.Type, msg.Elem, err)
	}
	if len(msg.GFResult.Values) != 4 || msg.GFResult.Values[3] != gf.Elem(gf.P-1) {
		t.Fatalf("decoded values %v", msg.GFResult.Values)
	}
}

// hostileResultFrame encodes a result frame with an arbitrary element
// kind, declared width and value count, and no value bytes.
func hostileResultFrame(tb testing.TB, kind wire.Elem, width int, count uint64) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Begin(wire.TypeResult)
	w.Uvarint(uint64(kind))
	w.Int(0)     // job
	w.Int(0)     // iter
	w.Int(0)     // phase
	w.Int(0)     // worker
	w.Uvarint(0) // partial
	w.Uvarint(0) // nanos
	w.Int(width)
	w.Int(0) // no ranges
	w.Uvarint(count)
	if err := w.End(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestGFResultHostileElementCount declares a value count the frame cannot
// hold: the division-based guard must reject it before sizing anything.
func TestGFResultHostileElementCount(t *testing.T) {
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(hostileResultFrame(t, wire.ElemGF, 1, 1<<40)))}
	if err := tc.recv(&Msg{}); err == nil {
		t.Fatal("hostile element count decoded without error")
	}
}

// checkDecodedFrame fails on a successfully decoded frame that breaks a
// decode-time invariant: a known type and element kind, and widths and
// job ids within their bounds.
func checkDecodedFrame(t *testing.T, msg *Msg) {
	t.Helper()
	if msg.Type < wire.TypeHello || msg.Type > wire.TypePong {
		t.Fatalf("decoded unknown frame type %d", msg.Type)
	}
	var width, job int
	switch msg.Type {
	case wire.TypeWork:
		width, job = msg.Work.W, msg.Work.Job
		if msg.Elem == wire.ElemGF {
			width, job = msg.GFWork.W, msg.GFWork.Job
		}
	case wire.TypeResult:
		width, job = msg.Result.RowWidth, msg.Result.Job
		if msg.Elem == wire.ElemGF {
			width, job = msg.GFResult.RowWidth, msg.GFResult.Job
		}
	default:
		return
	}
	if msg.Elem != wire.ElemFloat64 && msg.Elem != wire.ElemGF {
		t.Fatalf("decoded element kind %d", msg.Elem)
	}
	if width < 1 || width > maxBatchWidth || job < 0 || job > maxJobID {
		t.Fatalf("decoded width %d job %d", width, job)
	}
}

// fuzzResultDecoder seeds f and feeds arbitrary byte streams to the
// master-side decoder: recv must terminate without panicking, and
// whatever decodes must pass checkDecodedFrame.
func fuzzResultDecoder(f *testing.F, seeds [][]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(data))}
		msg := &Msg{}
		for {
			if err := tc.recv(msg); err != nil {
				return // any error ends the stream; panics fail the fuzz
			}
			checkDecodedFrame(t, msg)
		}
	})
}

// truncations returns valid cut after one byte, at half, and one byte
// short of its end.
func truncations(valid []byte) [][]byte {
	var cuts [][]byte
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 1} {
		cuts = append(cuts, append([]byte(nil), valid[:cut]...))
	}
	return cuts
}

// FuzzResultFrame fuzzes the result decoder seeded with well-formed
// result frames of both element kinds at widths 1 and above, one frame
// per seed and all of them interleaved in one stream, plus a frame of an
// unknown element kind.
func FuzzResultFrame(f *testing.F) {
	valid := [][]byte{
		buildResultStream(f, 1, []float64{1.5, -2, 3, 4}),
		buildResultStream(f, 3, []float64{1, 2, 3, 4, 5, 6}),
		buildResultStream(f, 1, []gf.Elem{1, 2, 3, gf.Elem(gf.P - 1)}),
		buildResultStream(f, 2, []gf.Elem{1, 2, 3, 4, 5, gf.Elem(gf.P - 1)}),
	}
	seeds := append(valid, bytes.Join(valid, nil), hostileResultFrame(f, 3, 1, 0))
	fuzzResultDecoder(f, seeds)
}

// FuzzGFResultFrame fuzzes the result decoder seeded with a width-1 GF
// result frame, its truncations, an empty stream and a bare header.
func FuzzGFResultFrame(f *testing.F) {
	valid := buildResultStream(f, 1, []gf.Elem{1, 2, 3, gf.Elem(gf.P - 1)})
	seeds := append([][]byte{valid}, truncations(valid)...)
	seeds = append(seeds, []byte{}, []byte{0x01, byte(wire.TypeResult)})
	fuzzResultDecoder(f, seeds)
}

// FuzzBatchResultFrame fuzzes the result decoder seeded with a stream of
// batched results of both element kinds, its truncations, and frames
// with hostile widths and element counts.
func FuzzBatchResultFrame(f *testing.F) {
	valid := bytes.Join([][]byte{
		buildResultStream(f, 3, []float64{1, 2, 3, 4, 5, 6}),
		buildResultStream(f, 2, []gf.Elem{1, 2, 3, 4, 5, gf.Elem(gf.P - 1)}),
	}, nil)
	seeds := append([][]byte{valid}, truncations(valid)...)
	seeds = append(seeds,
		hostileResultFrame(f, wire.ElemGF, 0, 0),
		hostileResultFrame(f, wire.ElemFloat64, maxBatchWidth+1, 0),
		hostileResultFrame(f, wire.ElemGF, 4, 1<<40),
	)
	fuzzResultDecoder(f, seeds)
}

// encodeWork encodes one work frame.
func encodeWork[E elem](tb testing.TB, wk *Work[E]) []byte {
	var buf bytes.Buffer
	if err := sendWork(&wireConn{w: wire.NewWriter(&buf)}, wk); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWorkFrame feeds arbitrary byte streams to a worker holding a 4×2
// partition of each element kind at phase 0, seeded with work frames of
// both kinds at widths 1 and above (valid, out of range, mis-sized x):
// every decoded frame must pass checkDecodedFrame, and every decoded
// Work runs through the real handler — which must never panic.
func FuzzWorkFrame(f *testing.F) {
	rg := []coding.Range{{Lo: 0, Hi: 4}}
	for _, s := range [][]byte{
		encodeWork(f, &Work[float64]{Job: 1, Iter: 2, W: 1, X: []float64{1, 2}, Ranges: rg}),
		encodeWork(f, &Work[float64]{Iter: 2, W: 3, X: make([]float64, 6), Ranges: rg}),
		encodeWork(f, &Work[gf.Elem]{Job: 2, Iter: 2, W: 1, X: []gf.Elem{1, 2}, Ranges: rg}),
		encodeWork(f, &Work[gf.Elem]{Iter: 2, W: 4, X: make([]gf.Elem, 8), Ranges: rg}),
		encodeWork(f, &Work[gf.Elem]{W: 1, X: []gf.Elem{1, 2}, Ranges: []coding.Range{{Lo: 2, Hi: 9}}}),
		encodeWork(f, &Work[float64]{W: 2, X: []float64{1, 2}, Ranges: rg}),
		{},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newWorker(WorkerConfig{Slowdown: 1, MaxResultRows: 3},
			&wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(data))})
		w.f64.parts[0] = &block[float64]{rows: 4, cols: 2, data: make([]float64, 8)}
		w.gf.parts[0] = &block[gf.Elem]{rows: 4, cols: 2, data: make([]gf.Elem, 8)}
		msg := &Msg{}
		for {
			if err := w.c.recv(msg); err != nil {
				return
			}
			checkDecodedFrame(t, msg)
			if msg.Type != wire.TypeWork {
				continue
			}
			if msg.Elem == wire.ElemGF {
				job := getSlot[Work[gf.Elem]](&w.gf.workPool)
				*job, msg.GFWork = msg.GFWork, *job
				handleWork(w, &w.gf, job)
			} else {
				job := getSlot[Work[float64]](&w.f64.workPool)
				*job, msg.Work = msg.Work, *job
				handleWork(w, &w.f64, job)
			}
		}
	})
}

// buildGFChunkSeed builds one seed stream for the chunk-assembly fuzzer.
// variant 0 is a fully valid stream; the others are canonical corruptions
// (duplicate chunk, gap, count mismatch, non-canonical lane).
func buildGFChunkSeed(tb testing.TB, variant int) []byte {
	var buf bytes.Buffer
	mc := &wireConn{w: wire.NewWriter(&buf)}
	if err := mc.sendPartitionStart(wire.ElemGF, &PartitionStart{Phase: 0, Seq: 1, Rows: 4, Cols: 1, ChunkRows: 2}); err != nil {
		tb.Fatal(err)
	}
	chunk := func(lo, hi int, vals []gf.Elem) {
		if err := sendChunk(mc, 0, 1, lo, hi, vals); err != nil {
			tb.Fatal(err)
		}
	}
	switch variant {
	case 0:
		chunk(0, 2, []gf.Elem{1, 2})
		chunk(2, 4, []gf.Elem{3, 4})
	case 1:
		chunk(0, 2, []gf.Elem{1, 2})
		chunk(0, 2, []gf.Elem{1, 2}) // duplicate
	case 2:
		chunk(2, 4, []gf.Elem{3, 4}) // gap: starts past row 0
	case 3:
		chunk(0, 2, []gf.Elem{1, 2, 3}) // count mismatch
	case 4:
		chunk(0, 2, []gf.Elem{gf.Elem(gf.P), 1}) // non-canonical lane
	}
	return buf.Bytes()
}

// FuzzGFChunkStream drives a real Worker's receive loop over arbitrary
// inbound byte streams (partition starts, chunks, work, anything):
// Run must terminate without panicking, and a published partition can
// only ever come from a complete in-order stream.
func FuzzGFChunkStream(f *testing.F) {
	for v := 0; v <= 4; v++ {
		f.Add(buildGFChunkSeed(f, v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the partition allocation bound so a fuzzed header cannot ask
		// for gigabytes; the guard logic under test is unchanged.
		old := maxPartitionElems
		maxPartitionElems = 1 << 14
		defer func() { maxPartitionElems = old }()
		w := newWorker(WorkerConfig{Slowdown: 1, MaxResultRows: 4 << 20},
			&wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(data))})
		w.Run() //nolint:errcheck // any error is a valid outcome; panics fail the fuzz
		// Invariant: every published GF partition is fully assembled and
		// canonical (the guards must make partial publication impossible).
		w.mu.Lock()
		defer w.mu.Unlock()
		for phase, p := range w.gf.parts {
			if !gf.Valid(p.data) {
				t.Fatalf("phase %d published a non-canonical partition", phase)
			}
		}
	})
}
