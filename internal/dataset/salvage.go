package dataset

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/nn"
)

// Salvage: when a store shard fails its envelope or frame validation,
// the store does not abort and does not discard the shard wholesale.
// The raw bytes are re-scanned frame by frame (each record carries its
// own CRC), every record that still checks out — structurally AND
// semantically — is recovered into a rewritten clean shard, the
// corrupt original is moved to quarantine/ for forensics, and a
// salvage report is written to <store>/salvage.json. A multi-week
// ingestion's output is never held hostage by one torn write.

// SalvageReport describes everything one OpenStore had to repair. It
// is returned to the caller and written as JSON to the store
// directory, so both programs and operators (and the CI drill) can
// assert on what happened.
type SalvageReport struct {
	Store           string              `json:"store"`
	ManifestRebuilt bool                `json:"manifest_rebuilt,omitempty"`
	ManifestError   string              `json:"manifest_error,omitempty"`
	Shards          []ShardSalvage      `json:"shards,omitempty"`
	DroppedRecords  []DroppedRecordNote `json:"dropped_records,omitempty"`
}

// ShardSalvage is the outcome of salvaging one damaged shard.
type ShardSalvage struct {
	Shard      string `json:"shard"`
	Error      string `json:"error"`
	Recovered  int    `json:"recovered"`
	Lost       int    `json:"lost"` // frames skipped or rejected
	Quarantine string `json:"quarantine,omitempty"`
}

// DroppedRecordNote records one CRC-valid but semantically invalid
// record rejected during salvage — the "decodes fine, lies about its
// contents" case the fuzz harness generates.
type DroppedRecordNote struct {
	Shard  string `json:"shard"`
	Record uint64 `json:"record_id"`
	Reason string `json:"reason"`
}

// Salvaged reports whether any shard needed salvage.
func (r *SalvageReport) Salvaged() bool {
	return len(r.Shards) > 0 || len(r.DroppedRecords) > 0
}

// write persists the report atomically as <dir>/salvage.json and
// appends per-record drops to quarantine/records.jsonl. Best-effort:
// a store that cannot write its report still opens (the report is also
// returned in memory).
func (r *SalvageReport) write(dir string) {
	if b, err := json.MarshalIndent(r, "", "  "); err == nil {
		writeSideFile(filepath.Join(dir, storeSalvageFile), append(b, '\n'))
	}
	if len(r.DroppedRecords) == 0 {
		return
	}
	qdir := filepath.Join(dir, storeQuarantine)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(qdir, storeRecordLog), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, d := range r.DroppedRecords {
		enc.Encode(d)
	}
}

// salvageShard recovers what it can from a shard that failed the
// envelope fast path. It returns the records that survived both the
// frame CRC walk and semantic validation; the corrupt original is
// moved to quarantine/ and, when anything was recovered, a clean
// replacement shard is written in its place. On any filesystem
// failure it degrades to "shard lost" (empty return) — salvage must
// never turn corruption into an abort.
func (s *CorpusStore) salvageShard(path string, index int, report *SalvageReport) []storeRecord {
	name := filepath.Base(path)
	sv := ShardSalvage{Shard: name}
	raw, err := os.ReadFile(path)
	if err != nil {
		sv.Error = err.Error()
		report.Shards = append(report.Shards, sv)
		return nil
	}

	recs, lost, ferr := scanShardFrames(raw, index)
	if ferr != "" {
		sv.Error = ferr
	}
	sv.Lost = lost

	// Semantic gate: a record that decodes cleanly can still be
	// poisonous (label outside the format set, NaN times, impossible
	// shapes). Build a scratch dataset record-by-record and keep only
	// what validates — salvage must never launder corrupt records back
	// into training.
	valid := recs[:0]
	scratch := &Dataset{Platform: s.man.Platform, Formats: s.man.Formats, Records: make([]Record, 0, 1)}
	for i := range recs {
		rec, err := storeRecordToRecord(&recs[i])
		if err != nil {
			sv.Lost++
			report.DroppedRecords = append(report.DroppedRecords, DroppedRecordNote{
				Shard: name, Record: recs[i].W.ID, Reason: err.Error(),
			})
			continue
		}
		scratch.Records = append(scratch.Records[:0], rec)
		if s.man.Platform != "" {
			if err := scratch.validateRecord(0); err != nil {
				sv.Lost++
				report.DroppedRecords = append(report.DroppedRecords, DroppedRecordNote{
					Shard: name, Record: rec.ID, Reason: err.Error(),
				})
				continue
			}
		}
		valid = append(valid, recs[i])
	}
	sv.Recovered = len(valid)

	// Move the corrupt original to quarantine before rewriting, so the
	// evidence survives and a crash mid-salvage leaves no ambiguity:
	// either the old corrupt file is still in place (salvage re-runs)
	// or the quarantined copy plus a clean rewrite exist.
	qdir := filepath.Join(s.dir, storeQuarantine)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		qpath := filepath.Join(qdir, name+".corrupt")
		if err := os.Rename(path, qpath); err == nil {
			sv.Quarantine = qpath
		} else {
			os.Remove(path)
		}
	} else {
		os.Remove(path)
	}

	if len(valid) > 0 {
		payload, err := encodeStoreShard(storeShardHeader{
			Version: storeVersion, Platform: s.man.Platform, Formats: s.man.Formats,
			Index: index, Count: len(valid),
		}, valid)
		if err == nil {
			err = writeStoreShardFile(path, payload)
		}
		if err != nil {
			// Could not persist the rewrite: the records are still good
			// in memory for this open, but the shard file is gone; report
			// honestly and keep going.
			sv.Error = joinErrStr(sv.Error, fmt.Sprintf("rewrite failed: %v", err))
		}
	}
	report.Shards = append(report.Shards, sv)
	return valid
}

// scanShardFrames walks raw shard file bytes (envelope header
// included) and recovers every record frame whose CRC holds. It
// returns the surviving records, the count of lost frames, and a
// description of the structural damage.
func scanShardFrames(raw []byte, wantIndex int) (recs []storeRecord, lost int, damage string) {
	const hdrLen = 24 // nn envelope header; CRC already known bad
	if len(raw) <= hdrLen {
		return nil, 0, "file shorter than an envelope header"
	}
	frames, skipped, err := walkFrames(raw[hdrLen:])
	lost += skipped
	if err != nil {
		damage = err.Error()
	}
	if len(frames) == 0 {
		return nil, lost, joinErrStr(damage, "no frames recovered")
	}
	// Frame zero should be the header; tolerate losing it (records are
	// self-describing enough) but verify it when present.
	start := 0
	var hdr storeShardHeader
	if gob.NewDecoder(bytes.NewReader(frames[0])).Decode(&hdr) == nil && hdr.Version == storeVersion {
		start = 1
		if hdr.Index != wantIndex {
			return nil, len(frames), joinErrStr(damage, fmt.Sprintf("shard holds index %d, want %d", hdr.Index, wantIndex))
		}
	}
	for _, fb := range frames[start:] {
		var sr storeRecord
		if err := gob.NewDecoder(bytes.NewReader(fb)).Decode(&sr); err != nil {
			lost++
			continue
		}
		recs = append(recs, sr)
	}
	return recs, lost, damage
}

// writeStoreShardFile writes a salvage rewrite through the same
// atomic envelope path as a normal shard publication.
func writeStoreShardFile(path string, payload []byte) error {
	return nn.WriteEnvelopeFile(path, nn.EnvelopeCorpusShard, payload)
}

func joinErrStr(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	return a + "; " + b
}
