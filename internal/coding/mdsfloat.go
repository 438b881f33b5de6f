package coding

import (
	"errors"
	"fmt"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// ErrInsufficient is returned when a row is covered by fewer worker
// results than the code requires.
var ErrInsufficient = errors.New("coding: insufficient results to decode")

// MDSCode is an (n,k) maximum-distance-separable code over float64 with a
// systematic generator: partitions 0..k-1 store the raw sub-matrices and
// partitions k..n-1 store Cauchy-coded parity, so any k of the n coded
// partitions reconstruct the original data.
//
// The Cauchy construction guarantees (in exact arithmetic) that every k×k
// submatrix of the generator is nonsingular. In float64 the decode systems
// are solved with partially pivoted LU plus one iterative-refinement step,
// but the integer-spaced Cauchy nodes make parity-heavy systems badly
// conditioned: with N(0,1) data and x, 16 columns, and the decode set that
// drops the first n−k systematic workers, the worst max absolute error is
// 1.1e-12 at (12,10), 3.3e-3 at (20,10) and 3.3e3 at (50,40). Decode sets
// with few parity rows stay near machine precision; use GFMDSCode where a
// parity-heavy decode must be exact.
type MDSCode struct {
	n, k int
	gen  *mat.Dense // n×k generator
	exec kernel.Exec
}

// NewMDSCode builds an (n,k) code. Requires 1 <= k <= n.
func NewMDSCode(n, k int) (*MDSCode, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("coding: invalid MDS parameters n=%d k=%d", n, k)
	}
	gen := mat.New(n, k)
	for j := 0; j < k; j++ {
		gen.Set(j, j, 1)
	}
	// Parity rows: Cauchy matrix c[i][j] = 1/(x_i + y_j) with all x_i + y_j
	// distinct and nonzero. x_i = k + i, y_j = -j + 0.5 keeps every sum in
	// (0, n+k], distinct, and O(n), which bounds the dynamic range of the
	// decode systems.
	for i := k; i < n; i++ {
		for j := 0; j < k; j++ {
			x := float64(i) // i in [k, n)
			y := 0.5 - float64(j)
			gen.Set(i, j, 1/(x+y))
		}
	}
	return &MDSCode{n: n, k: k, gen: gen}, nil
}

// SetExec pins the code's parallel loops (encoding, today) to the given
// pool and fan-out. The zero Exec — the default — uses the shared kernel
// pool with full fan-out; co-tenant clusters in one process should give
// each code its own pool or a bounded MaxFan.
func (c *MDSCode) SetExec(e kernel.Exec) { c.exec = e }

// N returns the number of coded partitions.
func (c *MDSCode) N() int { return c.n }

// K returns the recovery threshold.
func (c *MDSCode) K() int { return c.k }

// GeneratorRow returns generator row i (the mixing coefficients of coded
// partition i over the k data blocks). The returned slice is a copy.
func (c *MDSCode) GeneratorRow(i int) []float64 {
	return mat.CloneVec(c.gen.Row(i))
}

// EncodedMatrix holds the n coded partitions of a data matrix A along with
// the bookkeeping needed to decode distributed products against it.
type EncodedMatrix struct {
	Code      *MDSCode
	OrigRows  int // rows of A before padding
	Cols      int
	BlockRows int          // rows per partition (= PaddedRows/k)
	Parts     []*mat.Dense // n coded partitions, each BlockRows×Cols

	pad *mat.Dense // re-encode padding scratch (rows % k != 0 only)
}

// Encode splits A into k row blocks (zero-padding the tail) and produces
// the n coded partitions Ã_i = Σ_j G[i][j]·A_j.
func (c *MDSCode) Encode(a *mat.Dense) *EncodedMatrix {
	return c.EncodeInto(a, nil)
}

// EncodeInto is Encode reusing the partition storage of dst when its shape
// matches (the re-encode path of iterative jobs whose data matrix
// changes). dst == nil, or any shape mismatch, allocates fresh partitions.
func (c *MDSCode) EncodeInto(a *mat.Dense, dst *EncodedMatrix) *EncodedMatrix {
	cols := a.Cols()
	paddedRows := mat.PaddedRows(a.Rows(), c.k)
	blockRows := paddedRows / c.k
	if dst == nil || dst.Code != c || dst.BlockRows != blockRows || dst.Cols != cols {
		dst = &EncodedMatrix{
			Code:  c,
			Parts: make([]*mat.Dense, c.n),
		}
		for i := range dst.Parts {
			dst.Parts[i] = mat.New(blockRows, cols)
		}
	}
	dst.OrigRows = a.Rows()
	dst.Cols = cols
	dst.BlockRows = blockRows
	padded := a
	if a.Rows() != paddedRows {
		// Zero-pad into per-encoding scratch reused across re-encodes.
		if dst.pad == nil || dst.pad.Rows() != paddedRows || dst.pad.Cols() != cols {
			dst.pad = mat.New(paddedRows, cols)
		}
		data := dst.pad.Data()
		copy(data, a.Data())
		kernel.Zero(data[a.Rows()*cols:])
		padded = dst.pad
	}
	// Band-split the axpy sweeps across the pool: each participant owns a
	// disjoint row band [lo, hi) of every partition, so no two goroutines
	// ever write the same destination rows. Data blocks are row bands of
	// the padded matrix read in place — no per-block copies.
	src := padded.Data()
	c.exec.For(blockRows, encodeChunk(c.n, c.k, cols), func(lo, hi int) {
		for i := 0; i < c.n; i++ {
			band := dst.Parts[i].Data()[lo*cols : hi*cols]
			kernel.Zero(band)
			for j, g := range c.gen.Row(i) {
				if g != 0 {
					kernel.Axpy(g, src[(j*blockRows+lo)*cols:(j*blockRows+hi)*cols], band)
				}
			}
		}
	})
	return dst
}

// encodeChunk sizes encode bands so each chunk is a cache-friendly amount
// of axpy work across all n partitions and k blocks, scaled to the active
// kernel backend's per-chunk flop target.
func encodeChunk(n, k, cols int) int {
	return kernel.ChunkRows(2 * n * k * cols)
}

// WorkerCompute runs the coded mat-vec kernel a worker executes: the rows
// [ranges] of Ã_w · x. It returns a Partial ready for the decoder.
func (e *EncodedMatrix) WorkerCompute(w int, x []float64, ranges []Range) *Partial {
	return e.WorkerComputeInto(w, x, ranges, nil)
}

// WorkerComputeInto is WorkerCompute reusing dst's backing storage
// (Ranges and Values are overwritten). dst == nil allocates a fresh
// Partial.
//
//s2c2:noalloc
func (e *EncodedMatrix) WorkerComputeInto(w int, x []float64, ranges []Range, dst *Partial) *Partial {
	if dst == nil {
		// Convenience fallback; hot callers pass a reused Partial.
		//s2c2:waive noalloc
		dst = &Partial{}
	}
	dst.Worker = w
	dst.RowWidth = 1
	dst.Ranges = AppendNormalizeRanges(dst.Ranges[:0], ranges)
	total := TotalRows(dst.Ranges)
	dst.Values = kernel.Grow(dst.Values, total)
	at := 0
	for _, r := range dst.Ranges {
		mat.MatVecRowsInto(e.Parts[w], x, dst.Values[at:at+r.Len()], r.Lo, r.Hi)
		at += r.Len()
	}
	return dst
}

// WorkerComputeBatchInto is WorkerComputeInto over w x-vectors
// concatenated in xs (x_l at xs[l*Cols : (l+1)*Cols]): one sweep of the
// assigned partition rows serves every lane through the batched kernel,
// and the Partial carries RowWidth = w with row-major w-wide Values
// (lane l of covered row r at Values[r*w+l], rows in range order).
//
//s2c2:noalloc
func (e *EncodedMatrix) WorkerComputeBatchInto(worker int, xs []float64, w int, ranges []Range, dst *Partial) *Partial {
	if dst == nil {
		// Convenience fallback; hot callers pass a reused Partial.
		//s2c2:waive noalloc
		dst = &Partial{}
	}
	dst.Worker = worker
	dst.RowWidth = w
	dst.Ranges = AppendNormalizeRanges(dst.Ranges[:0], ranges)
	total := TotalRows(dst.Ranges)
	dst.Values = kernel.Grow(dst.Values, total*w)
	at := 0
	part := e.Parts[worker]
	for _, r := range dst.Ranges {
		kernel.MatVecRangeBatch(dst.Values[at:at+r.Len()*w], part.Data(), e.Cols, xs, w, r.Lo, r.Hi)
		at += r.Len() * w
	}
	return dst
}

// decodeSet is a factored k×k decode system for one set of workers.
type decodeSet struct {
	workers []int // owned copy, identifies the set
	sub     *mat.Dense
	lu      *mat.LU
}

// DecodeWorkspace holds the reusable state of DecodeMatVec rounds: the
// row-index table, factored decode systems (cached across rounds, so a
// recurring worker set is factored exactly once per workspace lifetime),
// and the run-solve scratch (z the solution block, r and dx the
// iterative-refinement residual and correction). A workspace belongs to
// one EncodedMatrix and must not be shared between concurrent decodes.
type DecodeWorkspace struct {
	table    rowTable[float64]
	sets     []*decodeSet
	z, r, dx []float64
	out      []float64
}

// NewDecodeWorkspace returns an empty workspace for decodes against e.
// A constructor allocates by definition; rounds reuse the workspace.
//
//s2c2:noalloc-waive
func (e *EncodedMatrix) NewDecodeWorkspace() *DecodeWorkspace {
	return &DecodeWorkspace{out: make([]float64, e.BlockRows*e.Code.k)}
}

// setFor returns the factored decode system for the worker set, reusing a
// cached factorization when the set has been seen before. Lookup compares
// worker slices directly (the distinct-set count is tiny), so the steady
// state allocates nothing. The cache-miss branch below factors a fresh
// system — once per distinct worker set, never in a warm round.
//
//s2c2:noalloc-waive
func (ws *DecodeWorkspace) setFor(e *EncodedMatrix, workers []int) (*decodeSet, error) {
	for _, ds := range ws.sets {
		if sameWorkers(ds.workers, workers) {
			return ds, nil
		}
	}
	k := e.Code.k
	sub := mat.New(k, k)
	for i, w := range workers {
		copy(sub.Row(i), e.Code.gen.Row(w))
	}
	lu, err := mat.FactorLU(sub)
	if err != nil {
		return nil, fmt.Errorf("coding: decode set %v singular: %w", workers, err)
	}
	ds := &decodeSet{workers: append([]int(nil), workers...), sub: sub, lu: lu}
	if len(ws.sets) >= maxCachedSets {
		ws.sets = ws.sets[:0] // churn guard: drop rather than grow unbounded
	}
	ws.sets = append(ws.sets, ds)
	return ds, nil
}

// solveRunInto solves sub·z = b for a run's k×m right-hand-side block b
// with one blocked LU pass, then applies one blocked iterative-refinement
// step: r = b − (Σⱼ sub[i][j]·z[j]), the sum formed before the
// subtraction, and z += LU⁻¹·r. r and dx are k×m scratch.
//
//s2c2:noalloc
func (d *decodeSet) solveRunInto(z, b, r, dx []float64, m int) {
	d.lu.SolveBlockInto(z, b, m)
	for i := range d.workers {
		ri, bi := r[i*m:(i+1)*m], b[i*m:][:m]
		clear(ri)
		for j, s := range d.sub.Row(i) {
			zj := z[j*m:][:m]
			for c := range ri {
				ri[c] += s * zj[c]
			}
		}
		for c := range ri {
			ri[c] = bi[c] - ri[c]
		}
	}
	d.lu.SolveBlockInto(dx, r, m)
	for c := range z {
		z[c] += dx[c]
	}
}

// DecodeMatVec reconstructs y = A·x (length OrigRows) from worker partials.
// Every partition row index must be covered by at least k workers. Each
// maximal run of rows decoded by one worker set is solved as a single
// k×(rows·width) block against that set's LU factorization, which is
// computed once per distinct set; the decode costs O(rows·width·k²) after
// O(sets·k³).
func (e *EncodedMatrix) DecodeMatVec(partials []*Partial) ([]float64, error) {
	return e.DecodeMatVecInto(nil, partials, nil)
}

// DecodeMatVecInto is DecodeMatVec writing into dst (length OrigRows ×
// the partials' RowWidth; nil allocates it) using ws for all scratch
// state. Passing the same workspace across rounds makes the steady-state
// decode allocation-free and amortises LU factorizations of recurring
// worker sets.
//
// Batched rounds decode through the same path: RowWidth-w partials yield
// a row-major w-wide dst (lane l of output row r at dst[r*w+l]). Every
// lane is one column of its run's right-hand-side block, and the blocked
// solve applies to each column the same operations a lone right-hand
// side would get, so lane l decodes exactly as the lane's partials alone.
//
//s2c2:noalloc
func (e *EncodedMatrix) DecodeMatVecInto(dst []float64, partials []*Partial, ws *DecodeWorkspace) ([]float64, error) {
	if ws == nil {
		ws = e.NewDecodeWorkspace()
	}
	k := e.Code.k
	if err := buildPartials(&ws.table, partials, e.Code.n, e.BlockRows); err != nil {
		return nil, err
	}
	width := max(ws.table.rowWidth, 1) // no partials: the coverage error below reports it
	if dst != nil && len(dst) != e.OrigRows*width {
		return nil, fmt.Errorf("coding: decode dst length %d want %d", len(dst), e.OrigRows*width)
	}
	ws.out = kernel.Grow(ws.out, e.BlockRows*k*width)
	var ds *decodeSet
	for row := 0; row < e.BlockRows; {
		end, rhs, err := ws.table.nextRun(row, k)
		if err != nil {
			return nil, err
		}
		if ds == nil || !sameWorkers(ds.workers, ws.table.set) {
			if ds, err = ws.setFor(e, ws.table.set); err != nil {
				return nil, err
			}
		}
		ws.z = kernel.Grow(ws.z, len(rhs))
		ws.r = kernel.Grow(ws.r, len(rhs))
		ws.dx = kernel.Grow(ws.dx, len(rhs))
		ds.solveRunInto(ws.z, rhs, ws.r, ws.dx, len(rhs)/k)
		scatterRun(ws.out, ws.z, k, e.BlockRows, row, width)
		row = end
	}
	if dst == nil {
		// Convenience fallback; hot callers pass a reused dst.
		//s2c2:waive noalloc
		dst = make([]float64, e.OrigRows*width)
	}
	copy(dst, ws.out[:e.OrigRows*width])
	return dst, nil
}

// DecodeFullPartitions reconstructs A·x the conventional-MDS way, from k
// workers that each computed their whole partition. It is a convenience
// wrapper over DecodeMatVec.
func (e *EncodedMatrix) DecodeFullPartitions(results map[int][]float64) ([]float64, error) {
	partials := make([]*Partial, 0, len(results))
	for w, vals := range results {
		if len(vals) != e.BlockRows {
			return nil, fmt.Errorf("coding: worker %d returned %d rows, partition has %d", w, len(vals), e.BlockRows)
		}
		partials = append(partials, &Partial{
			Worker:   w,
			Ranges:   []Range{{0, e.BlockRows}},
			RowWidth: 1,
			Values:   vals,
		})
	}
	return e.DecodeMatVec(partials)
}
