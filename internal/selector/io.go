package selector

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/durable"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/sparse"
)

// selectorHeader is the serialised metadata preceding the model blob.
type selectorHeader struct {
	RepKind     int
	RepSize     int
	RepBins     int
	Structure   int
	Formats     []int
	Blocks      []ConvBlock
	HiddenUnits int
	Dropout     float64
	LR          float64
	WeightDecay float64
	LRDecayAt   float64
	BatchSize   int
	Epochs      int
	Seed        int64
	MaxRetries  int
	LRBackoff   float64
	MaxGradNorm float64
}

// selectorBlob is the single gob value on the wire: the header plus the
// nn model's own serialised bytes (gob decoders read ahead, so nesting
// the model bytes avoids two decoders sharing one stream).
type selectorBlob struct {
	Header selectorHeader
	Model  []byte
}

// header extracts the serialisable config metadata.
func (s *Selector) header() selectorHeader {
	h := selectorHeader{
		RepKind: int(s.Cfg.Represent.Kind), RepSize: s.Cfg.Represent.Size, RepBins: s.Cfg.Represent.Bins,
		Structure: int(s.Cfg.Structure), Blocks: s.Cfg.Blocks, HiddenUnits: s.Cfg.HiddenUnits,
		Dropout: s.Cfg.DropoutRate,
		LR:      s.Cfg.LearningRate, WeightDecay: s.Cfg.WeightDecay, LRDecayAt: s.Cfg.LRDecayAt,
		BatchSize: s.Cfg.BatchSize, Epochs: s.Cfg.Epochs, Seed: s.Cfg.Seed,
		MaxRetries: s.Cfg.MaxRetries, LRBackoff: s.Cfg.LRBackoff, MaxGradNorm: s.Cfg.MaxGradNorm,
	}
	for _, f := range s.Cfg.Formats {
		h.Formats = append(h.Formats, int(f))
	}
	return h
}

// configFromHeader rebuilds a Config from serialised metadata, refusing
// a format number no format has.
func configFromHeader(h selectorHeader) (Config, error) {
	cfg := Config{
		Represent:    represent.Config{Kind: represent.Kind(h.RepKind), Size: h.RepSize, Bins: h.RepBins},
		Structure:    Structure(h.Structure),
		Blocks:       h.Blocks,
		HiddenUnits:  h.HiddenUnits,
		DropoutRate:  h.Dropout,
		LearningRate: h.LR, WeightDecay: h.WeightDecay, LRDecayAt: h.LRDecayAt,
		BatchSize: h.BatchSize, Epochs: h.Epochs, Seed: h.Seed,
		MaxRetries: h.MaxRetries, LRBackoff: h.LRBackoff, MaxGradNorm: h.MaxGradNorm,
	}
	for _, f := range h.Formats {
		cfg.Formats = append(cfg.Formats, sparse.Format(f))
	}
	if err := sparse.CheckFormats(cfg.Formats); err != nil {
		return Config{}, fmt.Errorf("selector: header: %w", err)
	}
	return cfg, nil
}

// Save writes the selector (config + weights) to w as a raw gob stream
// (no envelope — SaveFile wraps it in one for at-rest artifacts).
func (s *Selector) Save(w io.Writer) error {
	var mbuf bytes.Buffer
	if err := nn.Save(&mbuf, s.Model); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(selectorBlob{Header: s.header(), Model: mbuf.Bytes()}); err != nil {
		return fmt.Errorf("selector: encoding: %w", err)
	}
	return nil
}

// Load reads a selector written by Save.
func Load(r io.Reader) (*Selector, error) {
	var blob selectorBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("selector: decoding: %w", err)
	}
	cfg, err := configFromHeader(blob.Header)
	if err != nil {
		return nil, err
	}
	m, err := nn.Load(bytes.NewReader(blob.Model))
	if err != nil {
		return nil, err
	}
	return &Selector{Cfg: cfg, Model: m}, nil
}

// SaveFile writes the selector to a file inside the versioned,
// CRC-checksummed envelope, atomically (durable.WriteEnvelopeFile): a
// crash mid-save never leaves a truncated artifact at the model path.
func (s *Selector) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	return durable.WriteEnvelopeFile(path, durable.EnvelopeSelector, buf.Bytes())
}

// LoadFile reads a selector from a file, rejecting corrupt, truncated,
// wrong-kind and wrong-version artifacts with the typed envelope errors
// (durable.ErrTruncated, ErrChecksum, ErrBadMagic, ErrWrongKind,
// ErrVersion) — the service entry point for deploy artifacts.
func LoadFile(path string) (*Selector, error) {
	payload, err := durable.ReadEnvelopeFile(path, durable.EnvelopeSelector)
	if err != nil {
		return nil, fmt.Errorf("selector: loading %s: %w", path, err)
	}
	return Load(bytes.NewReader(payload))
}

// checkpointExtra serialises the selector's config header for embedding
// in training checkpoints, so a checkpoint alone reconstructs the
// selector on resume.
func (s *Selector) checkpointExtra() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.header()); err != nil {
		return nil, fmt.Errorf("selector: encoding checkpoint header: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadCheckpoint restores a selector and its training progress from the
// newest loadable checkpoint in dir (written during TrainSamplesCtx).
// Pass the returned checkpoint back to TrainSamplesCtx to continue the
// interrupted run. It returns nn.ErrNoCheckpoint when dir has none.
func LoadCheckpoint(dir string) (*Selector, *nn.Checkpoint, error) {
	ck, err := nn.LatestCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	var h selectorHeader
	if err := gob.NewDecoder(bytes.NewReader(ck.Extra)).Decode(&h); err != nil {
		return nil, nil, fmt.Errorf("selector: checkpoint has no selector header: %w", err)
	}
	cfg, err := configFromHeader(h)
	if err != nil {
		return nil, nil, err
	}
	m, err := nn.Load(bytes.NewReader(ck.Model))
	if err != nil {
		return nil, nil, err
	}
	return &Selector{Cfg: cfg, Model: m}, ck, nil
}
