// Package features extracts the SMAT-style hand-crafted feature vector
// (Li et al. PLDI'13; Sedaghati et al. ICS'15) that the decision-tree
// baseline consumes. The paper contrasts this manual feature engineering
// with the CNN's learned representations; keeping the two input
// pipelines separate makes the Table 2 comparison faithful.
package features

import (
	"math"
	"slices"

	"repro/internal/sparse"
)

// Names lists the features in vector order.
var Names = []string{
	"log_rows", "log_cols", "log_nnz",
	"density",
	"avg_row_nnz", "min_row_nnz", "max_row_nnz",
	"row_nnz_sd", "row_nnz_cv",
	"empty_row_frac",
	"ell_fill",
	"num_diags_frac", "dia_fill", "diag_dominance", "main_diag_fill",
	"bsr_fill", "blocks_per_nnz",
	"avg_col_spread", "bandwidth_frac",
	"hyb_tail_frac",
	"aspect_ratio",
	"gather_miss_8k", "gather_miss_32k",
}

// Dim is the length of the feature vector.
var Dim = len(Names)

// FromStats converts structural statistics into the feature vector.
// Scale-free ratios are used wherever possible; counts enter as logs so
// tree splits see comparable magnitudes across matrix sizes.
func FromStats(st sparse.Stats) []float64 {
	rows := float64(st.Rows)
	cols := float64(st.Cols)
	nnz := float64(st.NNZ)
	maxDim := math.Max(rows, cols)
	f := []float64{
		math.Log2(rows + 1),
		math.Log2(cols + 1),
		math.Log2(nnz + 1),
		st.Density,
		st.AvgRowNNZ,
		float64(st.MinRowNNZ),
		float64(st.MaxRowNNZ),
		st.RowNNZSD,
		st.RowNNZCV,
		float64(st.EmptyRows) / rows,
		st.ELLFill,
		float64(st.NumDiags) / maxDim,
		st.DIAFill,
		st.DiagDominance,
		st.MainDiagFill,
		st.BSRFill,
		safeDiv(float64(st.NumBlocks), nnz),
		st.AvgColSpread,
		float64(st.Bandwidth) / maxDim,
		safeDiv(float64(st.HYBTailNNZ), nnz),
		rows / cols,
		st.GatherMiss8K,
		st.GatherMiss32K,
	}
	if len(f) != Dim {
		panic("features: vector length out of sync with Names")
	}
	return f
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// BaselineNames lists the SMAT feature set as published (Li et al.
// PLDI'13, Table 2; Sedaghati et al. ICS'15 "Advanced" sets): matrix
// dimensions and nonzero counts, the row-degree distribution, the ELL
// fill ratio and the diagonal count ratio. The decision-tree baseline
// of the paper's Tables 2 and 3 uses exactly this subset. The extended
// vector above (FromStats) additionally exposes distance-weighted
// diagonal dominance, block fill, HYB tail size and column-spread
// locality — quantities the published baselines did not hand-craft; the
// Table 2 reproduction must not leak them to the baseline.
var BaselineNames = []string{
	"log_rows", "log_cols", "log_nnz",
	"density",
	"avg_row_nnz", "min_row_nnz", "max_row_nnz",
	"row_nnz_sd", "row_nnz_cv",
	"empty_row_frac",
	"ell_fill",
	"num_diags_frac",
	"aspect_ratio",
}

// BaselineDim is the length of the baseline feature vector.
var BaselineDim = len(BaselineNames)

// baselineIdx is where each of BaselineNames sits in the full vector,
// resolved once: a baseline name that is not one of Names is a bug in
// this file and stops the program at start-up instead of silently
// reading feature 0.
var baselineIdx = func() []int {
	idx := make([]int, BaselineDim)
	for i, n := range BaselineNames {
		idx[i] = slices.Index(Names, n)
		if idx[i] < 0 {
			panic("features: baseline feature " + n + " is not in Names")
		}
	}
	return idx
}()

// BaselineFromStats extracts the published SMAT feature subset.
func BaselineFromStats(st sparse.Stats) []float64 {
	full := FromStats(st)
	out := make([]float64, BaselineDim)
	for i, j := range baselineIdx {
		out[i] = full[j]
	}
	return out
}

// BaselineExtract computes the baseline feature vector from a pattern.
// It uses the lite statistics pass: the published SMAT features need no
// cache simulation, and the §7.6 overhead comparison charges the
// baseline only for what it computes.
func BaselineExtract(p *sparse.Pattern) []float64 {
	return BaselineFromStats(p.StatsLite())
}
