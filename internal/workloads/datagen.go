// Package workloads implements the paper's evaluation applications on top
// of the coded-computing stack: gradient descent for logistic regression
// and SVM (§7.1.1), PageRank power iteration and n-hop graph filtering
// (§7.1.2), and the polynomial-coded Hessian computation (§7.2.3), plus
// the synthetic dataset generators that stand in for the gisette and
// CS-Toronto datasets.
//
// Every workload is expressed as an iterative sequence of coded mat-vec
// phases (Iterative), so the same simulator/runtime drives all of them.
package workloads

import (
	"math"
	"math/rand"

	"github.com/coded-computing/s2c2/internal/mat"
)

// Classification is a synthetic dense binary-classification dataset in
// the style of gisette: two Gaussian clusters with label noise.
type Classification struct {
	X *mat.Dense // samples × features
	Y []float64  // labels in {-1, +1}
	W []float64  // the generating hyperplane (for sanity checks)
}

// SyntheticClassification generates a linearly-separable-with-noise
// dataset of the given shape.
func SyntheticClassification(samples, features int, seed int64) *Classification {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	mat.ScaleVec(1/mat.Norm2(w), w)
	x := mat.New(samples, features)
	y := make([]float64, samples)
	for i := 0; i < samples; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		margin := mat.Dot(row, w) + 0.3*rng.NormFloat64()
		if margin >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return &Classification{X: x, Y: y, W: w}
}

// Graph is a directed graph with the matrices the ranking and filtering
// workloads need.
type Graph struct {
	Nodes int
	// Adjacency[i][j] = 1 when j links to i (column j holds j's out-links).
	Adjacency *mat.Dense
	// Stochastic is the column-stochastic transition matrix for PageRank.
	Stochastic *mat.Dense
	// Laplacian is the combinatorial Laplacian D − A of the undirected
	// version, used by graph filtering.
	Laplacian *mat.Dense
}

// PowerLawGraph generates a web-like directed graph: node out-degrees
// follow a heavy-tailed distribution and link targets are preferentially
// attached, mirroring ranking datasets like the CS-Toronto crawl.
func PowerLawGraph(nodes, meanOutDegree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := mat.New(nodes, nodes)
	// Preferential attachment: sample targets weighted by in-degree+1.
	inDeg := make([]float64, nodes)
	totalIn := float64(nodes)
	for j := 0; j < nodes; j++ {
		// Heavy-tailed out-degree: pareto-ish via 1/U.
		deg := int(float64(meanOutDegree) * 0.5 / math.Max(0.05, rng.Float64()))
		if deg < 1 {
			deg = 1
		}
		if deg > nodes/2 {
			deg = nodes / 2
		}
		for e := 0; e < deg; e++ {
			// Weighted pick by (inDeg+1).
			r := rng.Float64() * totalIn
			acc := 0.0
			target := nodes - 1
			for i := 0; i < nodes; i++ {
				acc += inDeg[i] + 1
				if r <= acc {
					target = i
					break
				}
			}
			if target == j || adj.At(target, j) != 0 {
				continue
			}
			adj.Set(target, j, 1)
			inDeg[target]++
			totalIn++
		}
	}
	return buildGraph(nodes, adj)
}

// RingGraph generates a deterministic ring-with-chords graph, useful for
// small exact tests.
func RingGraph(nodes int) *Graph {
	adj := mat.New(nodes, nodes)
	for j := 0; j < nodes; j++ {
		adj.Set((j+1)%nodes, j, 1)
		adj.Set((j+nodes/2)%nodes, j, 1)
	}
	return buildGraph(nodes, adj)
}

func buildGraph(nodes int, adj *mat.Dense) *Graph {
	stoch := adj.Clone()
	for j := 0; j < nodes; j++ {
		col := 0.0
		for i := 0; i < nodes; i++ {
			col += stoch.At(i, j)
		}
		if col == 0 {
			// Dangling node: teleport uniformly.
			for i := 0; i < nodes; i++ {
				stoch.Set(i, j, 1/float64(nodes))
			}
		} else {
			for i := 0; i < nodes; i++ {
				stoch.Set(i, j, stoch.At(i, j)/col)
			}
		}
	}
	// Undirected Laplacian: L = D − (A ∨ Aᵀ).
	lap := mat.New(nodes, nodes)
	for i := 0; i < nodes; i++ {
		deg := 0.0
		for j := 0; j < nodes; j++ {
			if i == j {
				continue
			}
			v := 0.0
			if adj.At(i, j) != 0 || adj.At(j, i) != 0 {
				v = 1
			}
			lap.Set(i, j, -v)
			deg += v
		}
		lap.Set(i, i, deg)
	}
	return &Graph{Nodes: nodes, Adjacency: adj, Stochastic: stoch, Laplacian: lap}
}
