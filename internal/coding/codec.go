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

// Validate checks internal consistency of the partial. It applies the
// same checks rowTable.add runs when the partial enters a decode.
func (p *PartialOf[E]) Validate(blockRows int) error {
	return validatePartial(p.Worker, p.Ranges, len(p.Values), p.RowWidth, blockRows)
}

// validatePartial is the single validation rule shared by Partial.Validate
// and rowTable.add: positive row width, in-bounds ranges, and a value
// count matching rows × width.
func validatePartial(worker int, ranges []Range, numValues, rowWidth, blockRows int) error {
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
// for the exact-field codec — one implementation of the trickiest reuse
// logic instead of two). offsets[w][r] is the offset into values[w] for
// row r, or -1 when worker w did not compute row r.
//
// A rowTable is reusable: reset clears it and add repopulates it,
// retaining map entries and per-worker slices across decode rounds so a
// steady-state rebuild performs no allocation once every recurring worker
// has an entry.
type rowTable[T any] struct {
	blockRows int
	rowWidth  int
	offsets   map[int][]int
	values    map[int][]T
	order     []int // workers in arrival order
}

// reset prepares the table for a new decode round over partitions of
// blockRows rows, keeping per-worker storage for reuse.
func (t *rowTable[T]) reset(blockRows int) {
	if t.offsets == nil {
		// First round only; map entries are retained and reused after.
		//s2c2:waive noalloc
		t.offsets = make(map[int][]int, 8)
		//s2c2:waive noalloc
		t.values = make(map[int][]T, 8)
	}
	t.blockRows = blockRows
	t.rowWidth = 0
	t.order = t.order[:0]
}

// add registers one partial result: the given worker computed values for
// the rows in ranges, rowWidth values per row. Duplicate (worker, row)
// entries are legal — the rpc reassignment path delivers a worker's
// original ranges and its reassigned extras as separate partials, and a
// slow worker's late duplicate of an already-covered row may follow. The
// last registered offset wins, which is sound because every copy of a
// (worker, row) value is the same deterministic kernel output.
func (t *rowTable[T]) add(worker int, ranges []Range, values []T, rowWidth int) error {
	if err := validatePartial(worker, ranges, len(values), rowWidth, t.blockRows); err != nil {
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
		if cap(off) < t.blockRows {
			//s2c2:waive noalloc — first round this worker appears, reused after
			off = make([]int, t.blockRows)
		}
		off = off[:t.blockRows]
		for i := range off {
			off[i] = -1
		}
		t.offsets[worker] = off
		t.values[worker] = t.values[worker][:0]
		// Amortized: order resets to length 0 each round, capacity retained.
		//s2c2:waive noalloc
		t.order = append(t.order, worker)
	}
	vals := t.values[worker]
	base := len(vals)
	// Amortized: per-worker value storage retains capacity across rounds.
	//s2c2:waive noalloc
	vals = append(vals, values...)
	t.values[worker] = vals
	at := base
	for _, r := range ranges {
		for row := r.Lo; row < r.Hi; row++ {
			off[row] = at
			at += rowWidth
		}
	}
	return nil
}

// appendWorkersForRow appends up to max workers (in arrival order) that
// computed the given row onto dst, reusing its storage.
func (t *rowTable[T]) appendWorkersForRow(dst []int, row, max int) []int {
	dst = dst[:0]
	for _, w := range t.order {
		if t.offsets[w][row] >= 0 {
			// Writes through dst's reused storage (bounded by k workers).
			//s2c2:waive noalloc
			dst = append(dst, w)
			if len(dst) == max {
				break
			}
		}
	}
	return dst
}

// rowValue returns the rowWidth values worker w computed for row.
func (t *rowTable[T]) rowValue(w, row int) []T {
	off := t.offsets[w][row]
	return t.values[w][off : off+t.rowWidth]
}

// buildPartials populates the table from float64 partials, the shared
// entry point of the MDS and polynomial decode paths.
func buildPartials(t *rowTable[float64], partials []*Partial, blockRows int) error {
	t.reset(blockRows)
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
