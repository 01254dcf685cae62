package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// FuzzPredictJSON drives the full request-ingestion path — body size
// cap, content sniffing, JSON and MatrixMarket decoding, resource
// limits, COO construction — with arbitrary bodies and content types.
// The invariant is the robustness contract: scanBody never panics,
// every rejection maps onto the typed 400/413/422 taxonomy (no
// rejection may look like a server fault), and a body it accepts —
// streamed, built or Matrix Market — always yields its pattern without
// converting a value, the pattern of the matrix it materialises to.
func FuzzPredictJSON(f *testing.F) {
	for _, body := range predictJSONSeeds {
		f.Add(body, "application/json")
	}
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n", "text/matrix-market")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 3\n2 1 -1\n", "text/plain")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n", "text/matrix-market")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9\n1 1 1\n", "text/plain")
	f.Add("not a matrix at all", "text/plain")
	// Accepted off the streamed path: shuffled, a position twice, a zero.
	f.Add(`{"rows":3,"cols":3,"entries":[[2,1,7],[0,0,1],[1,2,3]]}`, "application/json")
	f.Add(`{"rows":3,"cols":3,"entries":[[0,0,0.25],[0,0,0.75],[1,2,3]]}`, "application/json")
	f.Add(`{"rows":3,"cols":3,"entries":[[0,0,1],[1,1,0],[2,2,1]]}`, "application/json")

	// A model-less server is enough: scanBody only needs cfg.
	cfg := Config{
		MaxBodyBytes: 1 << 16,
		Limits: sparse.Limits{
			MaxRows:      1 << 10,
			MaxCols:      1 << 10,
			MaxNNZ:       1 << 10,
			MaxLineBytes: 1 << 8,
		},
	}
	cfg.defaults()
	s := &Server{cfg: cfg}

	f.Fuzz(func(t *testing.T, body, contentType string) {
		if strings.ContainsAny(contentType, "\r\n") {
			t.Skip() // not settable as a header; nothing to test
		}
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader([]byte(body)))
		req.Header.Set("Content-Type", contentType)
		sc, err := s.scanBody(context.Background(), req)
		if err != nil {
			if st := ingestStatus(err); st != 400 && st != 413 && st != 422 {
				t.Fatalf("rejection mapped to status %d (err %v)", st, err)
			}
			return
		}
		m, err := DecodeMatrix(context.Background(), []byte(body), contentType, cfg.Limits)
		if err != nil {
			t.Fatalf("accepted by the scan, refused by the whole decode: %v", err)
		}
		checkScannedPattern(t, sc, m)
		// Accepted matrices must respect the configured resource budget
		// (×2 headroom: symmetric MatrixMarket entries expand to two).
		r, c := m.Dims()
		if r > cfg.Limits.MaxRows || c > cfg.Limits.MaxCols || m.NNZ() > 2*cfg.Limits.MaxNNZ {
			t.Fatalf("accepted %dx%d matrix with %d nonzeros past limits %+v", r, c, m.NNZ(), cfg.Limits)
		}
	})
}
