// Package represent implements the fixed-size matrix representations of
// Section 4 of the paper: the traditional scaled binary image, the
// density augmentation, and the distance-histogram representation
// (Algorithm 1) that the paper identifies as the most effective input
// for the CNN selector.
package represent

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Kind selects which representation a selector is trained on, matching
// the three CNN variants of Table 2.
type Kind int

// Representation kinds.
const (
	// KindBinary is the traditional image-scaling normalisation: a
	// size×size 0/1 map of block occupancy (one input channel).
	KindBinary Kind = iota
	// KindBinaryDensity augments binary with the block-density map
	// (two input channels with heterogeneous value semantics — the
	// late-merging motivation).
	KindBinaryDensity
	// KindHistogram is Algorithm 1: row and column histograms of the
	// distance |row−col| to the principal diagonal (two channels with
	// no one-to-one positional correspondence).
	KindHistogram
)

// String names the representation as in Table 2.
func (k Kind) String() string {
	switch k {
	case KindBinary:
		return "Binary"
	case KindBinaryDensity:
		return "Binary+Density"
	case KindHistogram:
		return "Histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds returns all representation kinds in Table 2 order.
func Kinds() []Kind { return []Kind{KindBinary, KindBinaryDensity, KindHistogram} }

// Config fixes the representation geometry. The paper uses 128×128
// images and 128×50 histograms; experiments here default to smaller
// sizes for pure-Go training speed (see DESIGN.md).
type Config struct {
	Kind Kind
	Size int // image edge / histogram rows
	Bins int // histogram bins (KindHistogram only)
}

// Channels returns the number of input channels the representation
// produces (the number of CNN towers in the late-merging structure).
func (c Config) Channels() int {
	if c.Kind == KindBinary {
		return 1
	}
	return 2
}

// ChannelShape returns the (height, width) of one channel.
func (c Config) ChannelShape() (int, int) {
	if c.Kind == KindHistogram {
		return c.Size, c.Bins
	}
	return c.Size, c.Size
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Size <= 0 {
		return fmt.Errorf("represent: non-positive size %d", c.Size)
	}
	if c.Kind == KindHistogram && c.Bins <= 0 {
		return fmt.Errorf("represent: histogram needs positive bins, got %d", c.Bins)
	}
	return nil
}

// PaperConfig returns the geometry used in the paper's evaluation:
// 128×128 images, 128×50 histograms (§7.2).
func PaperConfig(k Kind) Config {
	c := Config{Kind: k, Size: 128}
	if k == KindHistogram {
		c.Bins = 50
	}
	return c
}

// Elem is the storage precision of a representation: float64 for
// training samples, float32 for the inference arena.
type Elem interface{ float32 | float64 }

// Len returns the number of elements Into writes: Channels() channels
// of ChannelShape() each, back to back.
func (c Config) Len() int {
	h, w := c.ChannelShape()
	return c.Channels() * h * w
}

// Normalize converts a matrix into the fixed-size tensor channels the
// CNN consumes. Each returned tensor has shape (1, H, W) — one channel
// per tower for the late-merging structure — and they are consecutive
// views of one backing slice, which is what early merging feeds its
// single tower.
func Normalize(m *sparse.COO, cfg Config) ([]*tensor.Tensor, error) {
	data := make([]float64, cfg.Len())
	if err := Into(data, &m.Pattern, cfg); err != nil {
		return nil, err
	}
	h, w := cfg.ChannelShape()
	chans := make([]*tensor.Tensor, cfg.Channels())
	for c := range chans {
		chans[c] = tensor.FromSlice(data[c*h*w:(c+1)*h*w], 1, h, w)
	}
	return chans, nil
}

// exactCount is the largest nonzero count whose per-cell tallies a
// float32 slot still holds exactly.
const exactCount = 1 << 24

// Into writes the representation of m into dst — a function of where
// the nonzeros are, so it takes the pattern — which must hold
// cfg.Len() elements: the channels row-major and back to back, the
// layout both merging structures consume. One pass over the nonzeros,
// no allocation. Every cell is computed in float64 and converted at
// the store, so the float32 instantiation is exactly float32 of the
// float64 one.
func Into[T Elem](dst []T, m *sparse.Pattern, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Kind < KindBinary || cfg.Kind > KindHistogram {
		return fmt.Errorf("represent: unknown kind %v", cfg.Kind)
	}
	if len(dst) != cfg.Len() {
		return fmt.Errorf("represent: destination holds %d elements, %v %dx%d needs %d", len(dst), cfg.Kind, cfg.Size, cfg.Bins, cfg.Len())
	}
	if _, narrow := any(dst).([]float32); narrow && m.NNZ() > exactCount {
		// Counts are tallied in dst itself; past 2^24 a float32 cell
		// could drop an increment, so tally wide and convert.
		wide := make([]float64, len(dst))
		if err := Into(wide, m, cfg); err != nil {
			return err
		}
		for i, v := range wide {
			dst[i] = T(v)
		}
		return nil
	}
	clear(dst)
	sweep(dst, m, cfg)
	return nil
}

// grid maps an index p of a dimension of dim entries onto a grid of
// cells: slot p*cells/dim. While dim·cells fits 32 bits the divide is
// one multiply by magic = ⌈2^64/dim⌉, whose high word is the exact
// quotient of any 32-bit numerator (Lemire, Kaser & Kurz, "Faster
// remainder by direct computation", 2019); larger dimensions, and
// dim 1 whose magic does not fit, take the 64-bit divide.
type grid struct{ cells, dim, magic uint64 }

func newGrid(cells, dim int) grid {
	g := grid{cells: uint64(cells), dim: uint64(dim)}
	if dim > 1 && g.cells*g.dim <= math.MaxUint32 {
		g.magic = math.MaxUint64/g.dim + 1
	}
	return g
}

func (g grid) slot(p int32) int {
	n := uint64(p) * g.cells
	if g.magic == 0 {
		return int(n / g.dim)
	}
	q, _ := bits.Mul64(g.magic, n)
	return int(q)
}

// sweep is the one pass over the nonzeros.
func sweep[T Elem](dst []T, m *sparse.Pattern, cfg Config) {
	rows, cols := m.Dims()
	byRows, byCols := newGrid(cfg.Size, rows), newGrid(cfg.Size, cols)

	if cfg.Kind != KindHistogram {
		// Figure 4/5: block occupancy, and for the density channel the
		// per-block tally that blockDensity turns into a fraction.
		n := cfg.Size * cfg.Size
		tally := cfg.Kind == KindBinaryDensity
		for k, r := range m.Rows {
			cell := byRows.slot(r)*cfg.Size + byCols.slot(m.Cols[k])
			if tally {
				dst[n+cell]++
			} else {
				dst[cell] = 1
			}
		}
		if tally {
			blockDensity(dst[:n], dst[n:], rows, cols, cfg.Size)
		}
		return
	}

	// Algorithm 1: row i of a histogram aggregates the original rows
	// (columns, for the second channel) mapped onto it; bin b counts
	// nonzeros whose distance |row−col| from the principal diagonal
	// falls in [b, b+1)·MaxDim/bins. Both channels share the bin.
	bins := cfg.Bins
	n := cfg.Size * bins
	rowHist, colHist := dst[:n], dst[n:]
	byDist := newGrid(bins, max(rows, cols))
	for k, r := range m.Rows {
		c := m.Cols[k]
		// |r−c| without a branch: which side of the diagonal a nonzero
		// lies on is a coin flip for unstructured matrices.
		dist := r - c
		sign := dist >> 31
		dist = (dist ^ sign) - sign
		// dist < maxDim always, so bin < bins; the clamp is for safety.
		bin := min(byDist.slot(dist), bins-1)
		rowHist[byRows.slot(r)*bins+bin]++
		colHist[byCols.slot(c)*bins+bin]++
	}
	scaleToMax(rowHist)
	scaleToMax(colHist)
}

// blockDensity turns per-block nonzero tallies into the two Figure 5
// channels: occupancy, and the fraction of the block's cells that are
// nonzero. Matrices smaller than the grid go through the same block
// mapping (blocks may cover fractional cells; density then uses the
// true block area, at least one cell each way).
func blockDensity[T Elem](binary, density []T, rows, cols, size int) {
	extent := func(i, dim int) int {
		lo := int(int64(i) * int64(dim) / int64(size))
		hi := int(int64(i+1) * int64(dim) / int64(size))
		return max(hi-lo, 1)
	}
	for i := 0; i < size; i++ {
		h := extent(i, rows)
		for j := 0; j < size; j++ {
			cnt := density[i*size+j]
			if cnt == 0 {
				continue
			}
			binary[i*size+j] = 1
			d := float64(cnt) / float64(h*extent(j, cols))
			density[i*size+j] = T(min(d, 1))
		}
	}
}

// scaleToMax normalises a histogram of counts to [0,1] by its largest
// bin (final step of §4).
func scaleToMax[T Elem](hist []T) {
	top := T(0)
	for _, v := range hist {
		top = max(top, v)
	}
	if top == 0 {
		return
	}
	for i, v := range hist {
		hist[i] = T(float64(v) / float64(top))
	}
}
