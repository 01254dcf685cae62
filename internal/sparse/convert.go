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
