package coding

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
)

// Tests of the run-batched MDS decode against per-row reference decoders.
// The references index partials with maps and solve every row (and, for
// float64, every lane) on its own, the way the decoders worked before runs
// of same-worker-set rows were batched into one block solve.

// refRows indexes partials the way rowTable does: workers in arrival
// order, and for each (worker, row) the last delivered values.
func refRows[E float64 | gf.Elem](partials []*PartialOf[E]) (order []int, vals map[int]map[int][]E) {
	vals = map[int]map[int][]E{}
	for _, p := range partials {
		w := p.Width()
		if vals[p.Worker] == nil {
			vals[p.Worker] = map[int][]E{}
			order = append(order, p.Worker)
		}
		at := 0
		for _, r := range p.Ranges {
			for row := r.Lo; row < r.Hi; row++ {
				vals[p.Worker][row] = p.Values[at : at+w]
				at += w
			}
		}
	}
	return order, vals
}

// refFirstK returns the sorted first k workers (in arrival order) that
// computed row, or nil when fewer than k did.
func refFirstK[E any](order []int, vals map[int]map[int][]E, row, k int) []int {
	var set []int
	for _, w := range order {
		if _, ok := vals[w][row]; ok {
			set = append(set, w)
			if len(set) == k {
				sort.Ints(set)
				return set
			}
		}
	}
	return nil
}

// refDecodeFloat is the per-row, per-lane LU decoder: one factorization
// per row, one solve plus one refinement step per lane.
func refDecodeFloat(e *EncodedMatrix, partials []*Partial) ([]float64, error) {
	k, br, width := e.Code.k, e.BlockRows, partials[0].Width()
	order, vals := refRows(partials)
	out := make([]float64, br*k*width)
	b, z, r, dx := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
	for row := 0; row < br; row++ {
		set := refFirstK(order, vals, row, k)
		if set == nil {
			return nil, ErrInsufficient
		}
		sub := mat.New(k, k)
		for i, w := range set {
			copy(sub.Row(i), e.Code.gen.Row(w))
		}
		lu, err := mat.FactorLU(sub)
		if err != nil {
			return nil, err
		}
		for l := 0; l < width; l++ {
			for i, w := range set {
				b[i] = vals[w][row][l]
			}
			lu.SolveInto(z, b)
			mat.MatVecInto(sub, z, r)
			for i := range r {
				r[i] = b[i] - r[i]
			}
			lu.SolveInto(dx, r)
			for j := 0; j < k; j++ {
				out[(j*br+row)*width+l] = z[j] + dx[j]
			}
		}
	}
	return out[:e.OrigRows*width], nil
}

// refDecodeGF is the per-row exact decoder: one inverse per row applied
// to each lane as a mat-vec.
func refDecodeGF(e *GFEncodedMatrix, partials []*GFPartial) ([]gf.Elem, error) {
	k, br, width := e.Code.k, e.BlockRows, partials[0].Width()
	order, vals := refRows(partials)
	out := make([]gf.Elem, br*k*width)
	for row := 0; row < br; row++ {
		set := refFirstK(order, vals, row, k)
		if set == nil {
			return nil, ErrInsufficient
		}
		sub := gf.NewMatrix(k, k)
		for i, w := range set {
			copy(sub.Row(i), e.Code.gen.Row(w))
		}
		inv, ok := gf.Invert(sub)
		if !ok {
			return nil, errors.New("singular reference system")
		}
		for l := 0; l < width; l++ {
			for j := 0; j < k; j++ {
				var acc gf.Elem
				for i, w := range set {
					acc = gf.Add(acc, gf.Mul(inv.At(j, i), vals[w][row][l]))
				}
				out[(j*br+row)*width+l] = acc
			}
		}
	}
	return out[:e.OrigRows*width], nil
}

// delivery is one partial a worker sends: its worker id and row ranges.
type delivery struct {
	worker int
	ranges []Range
}

// s2c2Deliveries draws a chunked S2C2-style coverage of a blockRows-row
// partition: every chunk is assigned to between k and n random workers,
// each worker's rows arrive as an original partial plus, for some
// workers, a separate reassigned-extras partial, some partials are
// delivered twice (wholly or in part), and arrival order is shuffled.
func s2c2Deliveries(rng *rand.Rand, n, k, blockRows int) []delivery {
	perWorker := make([][]Range, n)
	for lo := 0; lo < blockRows; {
		hi := min(blockRows, lo+1+rng.Intn(blockRows/3+1))
		for _, w := range rng.Perm(n)[:k+rng.Intn(n-k+1)] {
			perWorker[w] = append(perWorker[w], Range{lo, hi})
		}
		lo = hi
	}
	var ds []delivery
	for w, rs := range perWorker {
		if len(rs) == 0 {
			continue
		}
		cut := len(rs)
		if len(rs) > 1 && rng.Intn(2) == 0 {
			cut = 1 + rng.Intn(len(rs)-1) // the tail arrives as reassigned extras
		}
		ds = append(ds, delivery{w, rs[:cut]})
		if cut < len(rs) {
			ds = append(ds, delivery{w, rs[cut:]})
		}
	}
	for i, n0 := 0, len(ds); i < n0; i++ {
		if rng.Intn(3) == 0 {
			d := ds[i]
			r := d.ranges[rng.Intn(len(d.ranges))]
			lo := r.Lo + rng.Intn(r.Len())
			ds = append(ds, delivery{d.worker, []Range{{lo, r.Hi}}}) // late duplicate rows
		}
	}
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

func maxAbsErr(got, want []float64) float64 {
	m := 0.0
	for i := range got {
		m = math.Max(m, math.Abs(got[i]-want[i]))
	}
	return m
}

// TestRunDecodeAccuracyVsPerRow: on random chunked S2C2 coverage the
// run-batched float64 decode is as accurate as the per-row LU decoder —
// its max error against A·x is at most twice the reference's, plus 1e-14.
func TestRunDecodeAccuracyVsPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, nk := range [][2]int{{4, 3}, {6, 4}, {12, 10}} {
		n, k := nk[0], nk[1]
		code, err := NewMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		for width := 1; width <= 4; width++ {
			for trial := 0; trial < 8; trial++ {
				rows, cols := k*(4+rng.Intn(40))-rng.Intn(k), 1+rng.Intn(12)
				a := mat.Rand(rows, cols, rng)
				enc := code.Encode(a)
				xs := randVec(width*cols, rng)
				want := make([]float64, rows*width)
				for l := 0; l < width; l++ {
					y := mat.MatVec(a, xs[l*cols:(l+1)*cols])
					for i, v := range y {
						want[i*width+l] = v
					}
				}
				var partials []*Partial
				for _, d := range s2c2Deliveries(rng, n, k, enc.BlockRows) {
					partials = append(partials, enc.WorkerComputeBatchInto(d.worker, xs, width, d.ranges, nil))
				}
				ref, err := refDecodeFloat(enc, partials)
				if err != nil {
					t.Fatal(err)
				}
				got, err := enc.DecodeMatVec(partials)
				if err != nil {
					t.Fatal(err)
				}
				refErr, gotErr := maxAbsErr(ref, want), maxAbsErr(got, want)
				if gotErr > 2*refErr+1e-14 {
					t.Fatalf("(%d,%d) width %d trial %d: run decode error %.3g, per-row reference %.3g",
						n, k, width, trial, gotErr, refErr)
				}
			}
		}
	}
}

// TestGFRunDecodeMatchesPerRow: the exact run-batched decode equals the
// per-row reference on the same random S2C2 coverage, element for
// element.
func TestGFRunDecodeMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, nk := range [][2]int{{4, 3}, {6, 4}, {12, 10}} {
		n, k := nk[0], nk[1]
		code, err := NewGFMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		for width := 1; width <= 4; width++ {
			rows, cols := k*(4+rng.Intn(40)), 1+rng.Intn(12)
			enc, err := code.Encode(rows, cols, randGFData(rows*cols, rng))
			if err != nil {
				t.Fatal(err)
			}
			xs := randGFData(width*cols, rng)
			var partials []*GFPartial
			for _, d := range s2c2Deliveries(rng, n, k, enc.BlockRows) {
				p, err := enc.WorkerMatVecBatch(d.worker, xs, width, d.ranges)
				if err != nil {
					t.Fatal(err)
				}
				partials = append(partials, p)
			}
			ref, err := refDecodeGF(enc, partials)
			if err != nil {
				t.Fatal(err)
			}
			got, err := enc.DecodeMatVec(partials)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("(%d,%d) width %d: element %d = %d, reference %d", n, k, width, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestDecodersRejectOutOfRangeWorker: every decoder answers a result from
// a worker id outside [0, n) with an error instead of indexing by it.
func TestDecodersRejectOutOfRangeWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	mds, _ := NewMDSCode(4, 3)
	enc := mds.Encode(mat.Rand(12, 2, rng))
	gfc, _ := NewGFMDSCode(4, 3)
	genc, err := gfc.Encode(12, 2, randGFData(24, rng))
	if err != nil {
		t.Fatal(err)
	}
	poly, _ := NewPolyCode(4, 1, 1)
	penc, err := poly.EncodeHessian(mat.Rand(6, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	lag, _ := NewLagrangeCode(4, 2)
	shares, err := lag.Encode([][]gf.Elem{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	decoders := []struct {
		name   string
		decode func(worker int) error
	}{
		{"mds-float64", func(w int) error {
			ps := []*Partial{enc.WorkerCompute(0, []float64{1, 1}, []Range{{0, enc.BlockRows}}),
				enc.WorkerCompute(1, []float64{1, 1}, []Range{{0, enc.BlockRows}}),
				{Worker: w, Ranges: []Range{{0, enc.BlockRows}}, RowWidth: 1, Values: make([]float64, enc.BlockRows)}}
			_, err := enc.DecodeMatVec(ps)
			return err
		}},
		{"mds-gf", func(w int) error {
			ps := []*GFPartial{{Worker: w, Ranges: []Range{{0, genc.BlockRows}}, RowWidth: 1, Values: make([]gf.Elem, genc.BlockRows)}}
			_, err := genc.DecodeMatVec(ps)
			return err
		}},
		{"poly", func(w int) error {
			ps := []*Partial{{Worker: w, Ranges: []Range{{0, penc.BlockColsA}}, RowWidth: penc.BlockColsB,
				Values: make([]float64, penc.BlockColsA*penc.BlockColsB)}}
			_, err := penc.Decode(ps)
			return err
		}},
		{"lagrange", func(w int) error {
			_, err := lag.Decode(map[int][]gf.Elem{0: shares[0], w: shares[1]}, 1)
			return err
		}},
	}
	for _, d := range decoders {
		for _, w := range []int{-1, 4, 7, 9} {
			if err := d.decode(w); err == nil || errors.Is(err, ErrInsufficient) {
				t.Errorf("%s: result from worker %d gave %v, want a worker-range error", d.name, w, err)
			}
		}
	}
}

// fuzzBlockRows is the partition height of the fuzz codes: (4,3) over a
// 12-row matrix.
const fuzzBlockRows = 4

// fuzzPartials turns fuzz bytes into matching float64 and GF partial sets
// for the (4,3) fuzz codes. Each partial takes 5 bytes: worker id + 1,
// range start + 1, range end, row width, and value-count skew + 1 (so
// ids, ranges, widths and counts can all be out of bounds). A byte with
// its top bit set instead re-delivers an earlier partial.
func fuzzPartials(data []byte) ([]*Partial, []*GFPartial) {
	var fps []*Partial
	var gps []*GFPartial
	for len(data) >= 5 && len(fps) < 16 {
		b := data[:5]
		data = data[5:]
		if b[0]&0x80 != 0 && len(fps) > 0 {
			i := int(b[1]) % len(fps)
			fps, gps = append(fps, fps[i]), append(gps, gps[i])
			continue
		}
		worker := int(b[0]%10) - 1
		lo, hi := int(b[1]%(fuzzBlockRows+2))-1, int(b[2]%(fuzzBlockRows+2))
		width := int(b[3] % 4) // 0 is malformed for float64 and read as 1 by GF
		count := max(max(hi-lo, 0)*max(width, 1)+int(b[4]%3)-1, 0)
		fv, gv := make([]float64, count), make([]gf.Elem, count)
		for i := range fv {
			fv[i] = float64(int(b[4])*31+i) / 7
			gv[i] = gf.New(uint64(b[4])*2654435761 + uint64(i))
		}
		ranges := []Range{{lo, hi}}
		fps = append(fps, &Partial{Worker: worker, Ranges: ranges, RowWidth: width, Values: fv})
		gps = append(gps, &GFPartial{Worker: worker, Ranges: ranges, RowWidth: width, Values: gv})
	}
	return fps, gps
}

// fuzzSeeds are FuzzDecodeMatVec's corpus: the first two decode (one full
// width-1 cover; a width-2 cover with reassigned extras and a duplicate
// delivery), the others carry an out-of-range worker and mixed widths.
var fuzzSeeds = [][]byte{
	{1, 1, 4, 1, 1, 2, 1, 4, 1, 1, 3, 1, 4, 1, 1},
	{1, 1, 2, 2, 1, 2, 1, 4, 2, 1, 3, 1, 4, 2, 1, 4, 1, 4, 2, 1, 1, 3, 4, 2, 1, 0x81, 1, 0, 0, 0},
	{8, 1, 4, 1, 1, 2, 1, 4, 1, 1, 3, 1, 4, 1, 1},
	{1, 1, 4, 1, 1, 2, 1, 4, 2, 1, 3, 0, 5, 1, 2},
}

// fuzzCodes returns the float64 and GF (4,3) encodings the fuzz decodes
// against, both with fuzzBlockRows-row partitions.
func fuzzCodes(tb testing.TB) (*EncodedMatrix, *GFEncodedMatrix) {
	rng := rand.New(rand.NewSource(93))
	mds, _ := NewMDSCode(4, 3)
	enc := mds.Encode(mat.Rand(12, 2, rng))
	gfc, _ := NewGFMDSCode(4, 3)
	genc, err := gfc.Encode(12, 2, randGFData(24, rng))
	if err != nil {
		tb.Fatal(err)
	}
	return enc, genc
}

// TestFuzzSeedsDecode keeps the fuzz corpus honest: its valid seeds must
// reach the successful-decode comparison, not only the error paths.
func TestFuzzSeedsDecode(t *testing.T) {
	enc, genc := fuzzCodes(t)
	for i, seed := range fuzzSeeds[:2] {
		fps, gps := fuzzPartials(seed)
		if _, err := enc.DecodeMatVec(fps); err != nil {
			t.Errorf("seed %d: float64 decode: %v", i, err)
		}
		if _, err := genc.DecodeMatVec(gps); err != nil {
			t.Errorf("seed %d: GF decode: %v", i, err)
		}
	}
}

// FuzzDecodeMatVec decodes fuzzPartials sets over float64 and GF. A
// decode must never panic; an exact decode that succeeds must equal the
// per-row reference element for element.
func FuzzDecodeMatVec(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	enc, genc := fuzzCodes(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fps, gps := fuzzPartials(data)
		if got, err := enc.DecodeMatVec(fps); err == nil && len(got) != enc.OrigRows*fps[0].Width() {
			t.Fatalf("float64 decode returned %d values", len(got))
		}
		got, err := genc.DecodeMatVec(gps)
		if err != nil {
			return
		}
		ref, err := refDecodeGF(genc, gps)
		if err != nil {
			t.Fatalf("decode succeeded but the per-row reference failed: %v", err)
		}
		if len(got) != len(ref) {
			t.Fatalf("decode returned %d values, reference %d", len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("element %d = %d, reference %d", i, got[i], ref[i])
			}
		}
	})
}
