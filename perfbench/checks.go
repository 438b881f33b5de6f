package main

import (
	"math"
	"math/rand"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// floatTol is how far a float64 decode may sit from a local recompute,
// relative to the magnitude of the value.
const floatTol = 1e-9

// sampledRows is how many output rows per lane every check recomputes
// locally, on top of the whole-vector projection.
const sampledRows = 8

// floatCheck verifies a decoded y = A·x without recomputing all of A·x:
// it compares the projection r·y with (rᵀA)·x for a fixed random r, which
// any error outside rounding moves, and recomputes a few random rows
// exactly. Each check costs O(rows+cols) per lane instead of O(rows·cols),
// so checking every round barely moves the measured throughput.
type floatCheck struct {
	a     *mat.Dense
	r, ra []float64
}

func newFloatCheck(a *mat.Dense, rng *rand.Rand) *floatCheck {
	c := &floatCheck{a: a, r: make([]float64, a.Rows()), ra: make([]float64, a.Cols())}
	for i := range c.r {
		c.r[i] = rng.NormFloat64()
	}
	kernel.VecMat(c.ra, c.r, a.Data(), a.Rows(), a.Cols())
	return c
}

// ok reports whether y (rows×w, lane l of row i at y[i*w+l]) is A·x for
// the w lanes of xs (lane l at xs[l*cols:(l+1)*cols]) within floatTol.
func (c *floatCheck) ok(y, xs []float64, w int, rng *rand.Rand) bool {
	rows, cols := c.a.Rows(), c.a.Cols()
	if len(y) != rows*w || len(xs) != cols*w {
		return false
	}
	for l := 0; l < w; l++ {
		x := xs[l*cols : (l+1)*cols]
		got, scale := 0.0, 0.0
		for i, ri := range c.r {
			got += ri * y[i*w+l]
			scale += math.Abs(ri * y[i*w+l])
		}
		want := 0.0
		for j, v := range c.ra {
			want += v * x[j]
			scale += math.Abs(v * x[j])
		}
		if !near(got, want, scale) {
			return false
		}
		for s := 0; s < sampledRows; s++ {
			i := rng.Intn(rows)
			row := c.a.Row(i)
			want, scale := 0.0, 0.0
			for j, v := range row {
				want += v * x[j]
				scale += math.Abs(v * x[j])
			}
			if !near(y[i*w+l], want, scale) {
				return false
			}
		}
	}
	return true
}

func near(got, want, scale float64) bool {
	return math.Abs(got-want) <= floatTol*math.Max(1, scale)
}

// gfCheck is floatCheck over GF(2³¹−1), where both comparisons are exact:
// a decode that differs from A·x in any element passes the projection
// with probability 1/(2³¹−1), and the sampled rows must match bit for bit.
type gfCheck struct {
	a     *gf.Matrix
	r, ra []gf.Elem
}

func newGFCheck(a *gf.Matrix, rng *rand.Rand) *gfCheck {
	rows, cols := a.Dims()
	c := &gfCheck{a: a, r: randElems(rows, rng), ra: make([]gf.Elem, cols)}
	for i, ri := range c.r {
		gf.Axpy(c.ra, ri, a.Row(i))
	}
	return c
}

func (c *gfCheck) ok(y, xs []gf.Elem, w int, rng *rand.Rand) bool {
	rows, cols := c.a.Dims()
	if len(y) != rows*w || len(xs) != cols*w {
		return false
	}
	for l := 0; l < w; l++ {
		x := xs[l*cols : (l+1)*cols]
		var got, want gf.Elem
		for i, ri := range c.r {
			got = gf.Add(got, gf.Mul(ri, y[i*w+l]))
		}
		for j, v := range c.ra {
			want = gf.Add(want, gf.Mul(v, x[j]))
		}
		if got != want {
			return false
		}
		for s := 0; s < sampledRows; s++ {
			i := rng.Intn(rows)
			var v gf.Elem
			for j, aij := range c.a.Row(i) {
				v = gf.Add(v, gf.Mul(aij, x[j]))
			}
			if y[i*w+l] != v {
				return false
			}
		}
	}
	return true
}

func randElems(n int, rng *rand.Rand) []gf.Elem {
	out := make([]gf.Elem, n)
	for i := range out {
		out[i] = gf.New(rng.Uint64())
	}
	return out
}

func randFloats(n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// stateMatches reports whether got equals want within floatTol, relative
// to each element's magnitude.
func stateMatches(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !near(got[i], want[i], math.Abs(want[i])) {
			return false
		}
	}
	return true
}
