package dataset

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// ImportMatrixMarket builds a labelled dataset from a directory of
// MatrixMarket files — the drop-in path for real SuiteSparse matrices
// when they are available. Files are read in sorted order for
// determinism; each matrix is labelled with the given labeler.
//
// A malformed .mtx file does not abort the import: it is skipped, and
// the per-file failures are returned as the second value so callers can
// log or inspect them. The import only fails outright when zero files
// load (or the directory cannot be read at all).
//
// Imported records keep the matrix accessible through the same
// Record.Matrix() API as generated ones: the file path is carried in a
// synthetic spec (Family = -1 is not valid for synthgen.Build, so
// imported datasets store matrices inline via the registry below).
func ImportMatrixMarket(dir string, lab *machine.Labeler) (*Dataset, []error, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".mtx") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("dataset: no .mtx files in %s", dir)
	}
	d := &Dataset{Platform: lab.Platform.Name, Formats: lab.FormatSet()}
	var skipped []error
	for _, path := range paths {
		// Imported archives are untrusted input: read through the
		// resource-governed reader so one pathological file costs a skip
		// entry, not an unbounded allocation (see readMatrixFile for the
		// panic containment the bulk ingester shares).
		m, err := readMatrixFile(context.Background(), path, sparse.DefaultLimits())
		if err != nil {
			skipped = append(skipped, fmt.Errorf("dataset: skipping %s: %w", path, err))
			continue
		}
		id := uint64(len(d.Records))
		st := sparse.ComputeStats(m)
		label, times := lab.Label(st, id)
		d.Records = append(d.Records, Record{
			ID:    id,
			Spec:  registerImported(m),
			Stats: st,
			Label: label,
			Times: times,
		})
	}
	if len(d.Records) == 0 {
		return nil, skipped, fmt.Errorf("dataset: no loadable .mtx files in %s (%d skipped)", dir, len(skipped))
	}
	return d, skipped, nil
}

// Imported matrices cannot be regenerated from a synthgen spec, so they
// are parked in an in-process registry and addressed by a spec whose
// Family is the sentinel below. WriteStore persists their patterns, so
// a store round trip recovers matrix access in a fresh process.
const importedFamily synthgen.Family = -1

var (
	importedMu       sync.RWMutex
	importedRegistry []*sparse.COO
)

func registerImported(m *sparse.COO) synthgen.Spec {
	importedMu.Lock()
	defer importedMu.Unlock()
	importedRegistry = append(importedRegistry, m)
	return synthgen.Spec{Family: importedFamily, Seed: int64(len(importedRegistry) - 1)}
}

// Matrix is shadowed for imported records via this hook in Record.
func importedMatrix(s synthgen.Spec) (*sparse.COO, bool) {
	if s.Family != importedFamily {
		return nil, false
	}
	importedMu.RLock()
	defer importedMu.RUnlock()
	idx := int(s.Seed)
	if idx < 0 || idx >= len(importedRegistry) {
		return nil, false
	}
	return importedRegistry[idx], true
}
