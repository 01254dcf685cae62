package sparse

import "fmt"

// Convert re-encodes any matrix into the target format, going through
// canonical COO. Format-specific parameters take their defaults (BSR
// 4×4 blocks, CSR5 4×16 tiles, HYB auto split). Converting a matrix to
// its own format still produces a fresh value built from canonical COO.
func Convert(m Matrix, target Format) (Matrix, error) {
	c := m.ToCOO()
	switch target {
	case FormatCOO:
		return c, nil
	case FormatCSR:
		return NewCSR(c), nil
	case FormatCSC:
		return NewCSC(c), nil
	case FormatDIA:
		return NewDIA(c), nil
	case FormatELL:
		return NewELL(c), nil
	case FormatHYB:
		return NewHYB(c, 0), nil
	case FormatBSR:
		return NewBSR(c, 0), nil
	case FormatCSR5:
		return NewCSR5(c, 0, 0), nil
	case FormatSELL:
		return NewSELL(c, 0, 0), nil
	default:
		return nil, fmt.Errorf("sparse: cannot convert to unknown format %v", target)
	}
}

// MustConvert is Convert that panics on error.
func MustConvert(m Matrix, target Format) Matrix {
	out, err := Convert(m, target)
	if err != nil {
		panic(err)
	}
	return out
}

// ConversionOps estimates the work of converting from CSR (the resident
// default) to the target format, in units of nonzero-element moves. The
// paper (§7.6) counts format-conversion overhead in SpMV-iteration
// equivalents; this estimate feeds that accounting in the machine cost
// models.
func ConversionOps(m Matrix, target Format) int64 {
	nnz := int64(m.NNZ())
	rows, _ := m.Dims()
	switch target {
	case FormatCSR, FormatCOO, FormatCSC:
		return nnz * 2 // one scan + one scatter
	case FormatELL:
		return nnz*2 + int64(rows) // width scan + padded scatter
	case FormatHYB:
		return nnz * 3 // split decision + two scatters
	case FormatDIA:
		return nnz * 3 // offset discovery + lane scatter
	case FormatBSR:
		return nnz * 4 // block-column discovery + blocked scatter, two divides each
	case FormatCSR5:
		return nnz * 3 // tiling + transposition
	case FormatSELL:
		return nnz * 3 // window sort + chunked scatter
	default:
		return nnz * 2
	}
}
