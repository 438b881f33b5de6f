// Package coding implements the erasure-coding layer of the S2C2 stack:
//
//   - an (n,k) MDS code over float64 with a systematic Cauchy-parity
//     generator (any k of the n coded partitions suffice to decode),
//   - the same code over the exact prime field GF(2³¹−1) for bit-exact
//     round trips and property tests, and
//   - polynomial codes (Yu et al., NIPS'17) for bilinear computations
//     such as the Hessian form Aᵀ·diag(x)·B.
//
// All codecs share the partial-result model of the paper: a worker holds
// one coded partition and may return results for an arbitrary subset of
// its partition's row indices; the decoder reconstructs every output row
// from any k (or a·b, for polynomial codes) worker results covering it.
package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// Range is a half-open row-index interval [Lo, Hi) within a partition.
type Range struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Contains reports whether row is inside the range.
func (r Range) Contains(row int) bool { return row >= r.Lo && row < r.Hi }

// TotalRows sums the lengths of the ranges.
func TotalRows(ranges []Range) int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// NormalizeRanges sorts ranges, drops empties, and merges overlaps,
// returning a canonical minimal representation.
func NormalizeRanges(ranges []Range) []Range {
	return AppendNormalizeRanges(make([]Range, 0, len(ranges)), ranges)
}

// AppendNormalizeRanges is NormalizeRanges appending onto dst (which must
// be empty and must not alias ranges) so hot paths can reuse a result's
// Range storage. It performs no allocation once dst has capacity.
func AppendNormalizeRanges(dst []Range, ranges []Range) []Range {
	for _, r := range ranges {
		if r.Len() > 0 {
			// Amortized: callers reuse dst's backing storage round to round.
			//s2c2:waive noalloc
			dst = append(dst, r)
		}
	}
	// Insertion sort: range lists are short and this avoids the closure
	// allocation of sort.Slice.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].Lo < dst[j-1].Lo; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	out := dst[:0]
	for _, r := range dst {
		if len(out) > 0 && r.Lo <= out[len(out)-1].Hi {
			if r.Hi > out[len(out)-1].Hi {
				out[len(out)-1].Hi = r.Hi
			}
			continue
		}
		// Writes through dst's own storage (out aliases dst[:0]).
		//s2c2:waive noalloc
		out = append(out, r)
	}
	return out
}

// PartialOf is the result a worker returns for one round: the values of
// its assigned rows of the coded computation, over float64 or exact
// GF(2³¹−1) elements. Values holds the computed rows concatenated in range
// order, RowWidth values per row (lane l of covered row r at
// Values[r*RowWidth+l]).
type PartialOf[E float64 | gf.Elem] struct {
	Worker   int
	Ranges   []Range
	RowWidth int
	Values   []E
}

// Partial is a float64 partial result.
type Partial = PartialOf[float64]

// GFPartial is an exact partial result. RowWidth 0 is read as 1 (Width) so
// zero-valued partials from single-x paths stay valid.
type GFPartial = PartialOf[gf.Elem]

// NumRows returns how many partition rows the partial covers.
func (p *PartialOf[E]) NumRows() int { return TotalRows(p.Ranges) }

// Width returns the partial's row width, treating the zero value as 1.
func (p *PartialOf[E]) Width() int {
	if p.RowWidth <= 0 {
		return 1
	}
	return p.RowWidth
}

// Validate checks internal consistency of the partial against a code of
// n workers whose partitions have blockRows rows. It applies the same
// checks rowTable.add runs when the partial enters a decode.
func (p *PartialOf[E]) Validate(n, blockRows int) error {
	return validatePartial(p.Worker, n, p.Ranges, len(p.Values), p.RowWidth, blockRows)
}

// checkWorker rejects a worker id outside [0, n), the rule every decoder
// applies before it indexes per-worker state by id.
func checkWorker(worker, n int) error {
	if worker < 0 || worker >= n {
		return fmt.Errorf("coding: result from worker %d outside [0,%d)", worker, n)
	}
	return nil
}

// validatePartial is the single validation rule shared by Partial.Validate
// and rowTable.add: a worker id in [0, n) plus validateShape.
func validatePartial(worker, n int, ranges []Range, numValues, rowWidth, blockRows int) error {
	if err := checkWorker(worker, n); err != nil {
		return err
	}
	return validateShape(worker, ranges, numValues, rowWidth, blockRows)
}

// validateShape checks a partial's layout: positive row width, in-bounds
// ranges, and a value count matching rows × width.
func validateShape(worker int, ranges []Range, numValues, rowWidth, blockRows int) error {
	if rowWidth <= 0 {
		return fmt.Errorf("coding: partial from worker %d has RowWidth %d", worker, rowWidth)
	}
	rows := 0
	for _, r := range ranges {
		if r.Lo < 0 || r.Hi > blockRows || r.Lo > r.Hi {
			return fmt.Errorf("coding: partial from worker %d has range [%d,%d) outside [0,%d)", worker, r.Lo, r.Hi, blockRows)
		}
		rows += r.Len()
	}
	if want := rows * rowWidth; numValues != want {
		return fmt.Errorf("coding: partial from worker %d has %d values, want %d", worker, numValues, want)
	}
	return nil
}

// rowTable indexes partial results row-by-row for a decode pass, generic
// over the value element (float64 for the MDS/polynomial codecs, gf.Elem
// for the exact-field codec). Per-worker state lives in slices indexed by
// worker id, which validatePartial bounds to [0, n): offsets[w][r] is the
// offset into values[w] for row r, or -1 when worker w did not compute
// row r.
//
// A rowTable is reusable: reset clears it and add repopulates it,
// retaining per-worker slices across decode rounds so a steady-state
// rebuild performs no allocation once every recurring worker has appeared.
//
// Decoders walk the table run by run (nextRun): a run is a maximal stretch
// of rows whose first k covering workers, in arrival order, form the same
// set, so one decode system serves the whole run.
type rowTable[T any] struct {
	blockRows int
	rowWidth  int
	offsets   [][]int // indexed by worker id
	values    [][]T   // indexed by worker id
	order     []int   // workers in arrival order
	inSet     []bool  // indexed by worker id: member of set
	set       []int   // the current run's worker set, ascending
	rhs       []T     // the current run's gathered values (nextRun)
}

// reset prepares the table for a new decode round of a code with n
// workers over partitions of blockRows rows, keeping per-worker storage
// for reuse.
func (t *rowTable[T]) reset(n, blockRows int) {
	clear(t.inSet)
	if len(t.offsets) < n {
		// Grows only the first round a workspace sees this code.
		//s2c2:waive noalloc
		t.offsets = append(t.offsets, make([][]int, n-len(t.offsets))...)
		//s2c2:waive noalloc
		t.values = append(t.values, make([][]T, n-len(t.values))...)
		//s2c2:waive noalloc
		t.inSet = make([]bool, n)
	}
	t.offsets, t.values, t.inSet = t.offsets[:n], t.values[:n], t.inSet[:n]
	t.blockRows = blockRows
	t.rowWidth = 0
	t.order = t.order[:0]
	t.set = t.set[:0]
}

// add registers one partial result: the given worker computed values for
// the rows in ranges, rowWidth values per row. Duplicate (worker, row)
// entries are legal — the rpc reassignment path delivers a worker's
// original ranges and its reassigned extras as separate partials, and a
// slow worker's late duplicate of an already-covered row may follow. The
// last registered offset wins, which is sound because every copy of a
// (worker, row) value is the same deterministic kernel output.
func (t *rowTable[T]) add(worker int, ranges []Range, values []T, rowWidth int) error {
	if err := validatePartial(worker, len(t.offsets), ranges, len(values), rowWidth, t.blockRows); err != nil {
		return err
	}
	if t.rowWidth == 0 {
		t.rowWidth = rowWidth
	} else if t.rowWidth != rowWidth {
		return fmt.Errorf("coding: mixed row widths %d and %d", t.rowWidth, rowWidth)
	}
	off := t.offsets[worker]
	seen := false
	for _, w := range t.order {
		if w == worker {
			seen = true
			break
		}
	}
	if !seen {
		off = kernel.GrowSlice(off, t.blockRows)
		for i := range off {
			off[i] = -1
		}
		t.offsets[worker] = off
		t.values[worker] = t.values[worker][:0]
		// Amortized: order resets to length 0 each round, capacity retained.
		//s2c2:waive noalloc
		t.order = append(t.order, worker)
	}
	base := len(t.values[worker])
	// Amortized: per-worker value storage retains capacity across rounds.
	//s2c2:waive noalloc
	t.values[worker] = append(t.values[worker], values...)
	at := base
	for _, r := range ranges {
		for row := r.Lo; row < r.Hi; row++ {
			off[row] = at
			at += rowWidth
		}
	}
	return nil
}

// runEnd starts a run at row: it records in t.set the first k workers
// (in arrival order) that computed row, sorted so the set names its
// decode system regardless of arrival order, and returns the end of the
// run — the first later row, at most maxRows after row, whose first k
// covering workers differ from that set. A row covered by fewer than k
// workers is an ErrInsufficient error.
func (t *rowTable[T]) runEnd(row, k, maxRows int) (int, error) {
	for _, w := range t.set {
		t.inSet[w] = false
	}
	t.set = t.set[:0]
	for _, w := range t.order {
		if t.offsets[w][row] >= 0 {
			// Bounded by k workers; capacity is retained across runs.
			//s2c2:waive noalloc
			t.set = append(t.set, w)
			if len(t.set) == k {
				break
			}
		}
	}
	if len(t.set) < k {
		return 0, fmt.Errorf("%w: row %d covered by %d of %d workers", ErrInsufficient, row, len(t.set), k)
	}
	sortInts(t.set)
	for _, w := range t.set {
		t.inSet[w] = true
	}
	end := min(row+maxRows, t.blockRows)
	for r := row + 1; r < end; r++ {
		if !t.firstKInSet(r, k) {
			return r, nil
		}
	}
	return end, nil
}

// firstKInSet reports whether the first k workers (in arrival order) that
// computed row are exactly the members of t.set.
func (t *rowTable[T]) firstKInSet(row, k int) bool {
	found := 0
	for _, w := range t.order {
		if t.offsets[w][row] < 0 {
			continue
		}
		if !t.inSet[w] {
			return false
		}
		if found++; found == k {
			return true
		}
	}
	return false
}

// maxRunLanes bounds the right-hand side of one run solve: a run of
// same-worker-set rows is split so its block holds at most this many
// lanes (rows × width) per coded block, keeping every k×lanes run
// buffer of the decoders at a fixed size regardless of BlockRows.
const maxRunLanes = 4096

// nextRun finds the run starting at row (see runEnd; at most
// maxRunLanes lanes) and gathers its right-hand side: a
// k×((end−row)·rowWidth) row-major block whose row i holds worker
// t.set[i]'s values for rows [row, end), rowWidth lanes per row. The
// block is table storage, valid until the next call.
func (t *rowTable[T]) nextRun(row, k int) (end int, rhs []T, err error) {
	width := max(t.rowWidth, 1)
	if end, err = t.runEnd(row, k, max(maxRunLanes/width, 1)); err != nil {
		return 0, nil, err
	}
	gw := (end - row) * width
	t.rhs = kernel.GrowSlice(t.rhs, k*gw)
	for i, w := range t.set {
		offs, vals, dst := t.offsets[w], t.values[w], t.rhs[i*gw:(i+1)*gw]
		for r := row; r < end; {
			// Copy each stretch of rows stored back to back in one go.
			s := r + 1
			for s < end && offs[s] == offs[s-1]+width {
				s++
			}
			copy(dst[(r-row)*width:], vals[offs[r]:offs[r]+(s-r)*width])
			r = s
		}
	}
	return end, t.rhs[:k*gw], nil
}

// scatterRun copies a decoded run into out, the row-major decode of all k
// coded blocks (block j's rows start at row j·blockRows, width lanes per
// row): z is k×((hi−lo)·width) with block j's rows [lo, hi) in row j.
func scatterRun[T any](out, z []T, k, blockRows, lo, width int) {
	gw := len(z) / k
	for j := 0; j < k; j++ {
		copy(out[(j*blockRows+lo)*width:][:gw], z[j*gw:(j+1)*gw])
	}
}

// buildPartials populates the table from float64 partials, the shared
// entry point of the MDS and polynomial decode paths.
func buildPartials(t *rowTable[float64], partials []*Partial, n, blockRows int) error {
	t.reset(n, blockRows)
	for _, p := range partials {
		if err := t.add(p.Worker, p.Ranges, p.Values, p.RowWidth); err != nil {
			return err
		}
	}
	return nil
}

// maxCachedSets bounds every per-workspace decode-system cache. Worker
// sets are canonicalized (sorted) before lookup, so the cache only grows
// when the *membership* of responding workers churns; if it still
// overflows, the whole cache is dropped rather than letting a long-lived
// workspace accumulate factorizations without bound.
const maxCachedSets = 64

// sameWorkers reports whether a and b hold identical worker sequences.
func sameWorkers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
