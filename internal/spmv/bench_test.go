package spmv

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// benchCOO is the fixed-seed kernel workload: large enough that the
// inner loops dominate, small enough that `make bench` stays fast.
func benchCOO() *sparse.COO {
	rng := rand.New(rand.NewSource(1))
	return randomCOO(rng, 2048, 2048, 2048*8)
}

// benchTallCOO is the fixed-seed tall hypersparse workload: 200k rows,
// 3.5k columns, 1k nonzeros, the shape of synthgen's hypersparse
// family at its largest, where nearly every CSR row is empty.
func benchTallCOO() *sparse.COO {
	return synthgen.Hypersparse(200000, 3500, 1000, 1)
}

// BenchmarkKernelMul measures every per-format SpMV kernel serially on
// one fixed matrix, and CSR and COO again on the tall hypersparse one
// (under tall/). These are guarded hot paths: scripts/benchgate fails
// CI if any regresses more than its threshold.
func BenchmarkKernelMul(b *testing.B) {
	benchMul(b, "", benchCOO(), sparse.AllFormats())
	benchMul(b, "tall/", benchTallCOO(), []sparse.Format{sparse.FormatCSR, sparse.FormatCOO})
}

func benchMul(b *testing.B, prefix string, c *sparse.COO, formats []sparse.Format) {
	rows, cols := c.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	for _, f := range formats {
		m := sparse.MustConvert(c, f)
		k, err := ForFormat(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(prefix+f.String(), func(b *testing.B) {
			b.SetBytes(m.Bytes())
			for i := 0; i < b.N; i++ {
				k.Mul(y, m, x, 1)
			}
		})
	}
}

// BenchmarkKernelMulParallel exercises the row-partitioned and
// scatter-reduce parallel paths with the worker heuristic (workers=0).
func BenchmarkKernelMulParallel(b *testing.B) {
	c := benchCOO()
	rows, cols := c.Dims()
	x := make([]float64, cols)
	y := make([]float64, rows)
	for _, f := range []sparse.Format{sparse.FormatCSR, sparse.FormatCOO} {
		m := sparse.MustConvert(c, f)
		k, err := ForFormat(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.String(), func(b *testing.B) {
			b.SetBytes(m.Bytes())
			for i := 0; i < b.N; i++ {
				k.Mul(y, m, x, 0)
			}
		})
	}
}
