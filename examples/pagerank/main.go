// Pagerank: the paper's §1 motivating citation (Brin & Page's web
// ranking) as a workload — power iteration on a scale-free adjacency
// matrix, which is SpMV-bound and skew-heavy. The selector picks the
// storage format; the example compares iteration throughput across
// formats and reports the dominant-eigenvalue estimate.
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/spmv"
	"repro/internal/synthgen"
)

func main() {
	res, err := core.Train(core.Options{
		Platform: "xeonlike", Count: 400, MaxN: 1024,
		Representation: represent.KindHistogram, RepSize: 16, RepBins: 8,
		Epochs: 25, Seed: 11, Log: os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A web-graph-like adjacency: RMAT scatter with power-law degrees.
	n := 4096
	graph := synthgen.Kronecker(n, n*16, 0.57, 0.19, 0.19, 42)
	st := sparse.ComputeStats(graph)
	fmt.Printf("\ngraph: %d nodes, %d edges, row-degree cv %.2f\n", n, graph.NNZ(), st.RowNNZCV)

	_, format, err := core.BestFormat(res.Selector, graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selector chose %s\n\n", format)

	const iters = 60
	fmt.Printf("%-6s %14s %14s\n", "format", "60 iterations", "lambda-max")
	compare := []sparse.Format{format}
	for _, f := range []sparse.Format{sparse.FormatCSR, sparse.FormatCOO} {
		if f != format {
			compare = append(compare, f)
		}
	}
	for _, f := range compare {
		m, err := sparse.Convert(graph, f)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		lambda := powerIterate(m, iters, 0)
		fmt.Printf("%-6s %14v %14.4f\n", f, time.Since(start).Round(time.Microsecond), lambda)
	}
}

// powerIterate runs n steps of the power method x ← A·x / ‖A·x‖ on a
// square matrix and returns the final Rayleigh-quotient estimate of the
// dominant eigenvalue.
func powerIterate(m sparse.Matrix, n, workers int) float64 {
	rows, cols := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1.0 / float64(cols)
	}
	y := make([]float64, rows)
	var lambda float64
	for it := 0; it < n; it++ {
		spmv.Mul(y, m, x, workers)
		// Rayleigh quotient and normalisation.
		num, den, norm := 0.0, 0.0, 0.0
		for i := range y {
			num += x[i] * y[i]
			den += x[i] * x[i]
			norm += y[i] * y[i]
		}
		if den > 0 {
			lambda = num / den
		}
		if norm == 0 {
			break
		}
		inv := 1.0 / math.Sqrt(norm)
		for i := range y {
			x[i] = y[i] * inv
		}
	}
	return lambda
}
