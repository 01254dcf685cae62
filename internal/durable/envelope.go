package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Every artifact file on disk is wrapped in a small versioned envelope
// so a truncated download, a bit-flipped block, or a file from a newer
// incompatible build is rejected with a typed error before gob ever
// sees it — a bad deploy artifact must fail loudly and fall back, not
// crash inference with an opaque decode panic deep in the stack.
//
// Envelope layout (big-endian):
//
//	offset 0  magic   "SMFS" (4 bytes)
//	offset 4  version uint32 (currently 1)
//	offset 8  kind    uint32 (one of the Envelope* kinds below)
//	offset 12 length  uint64 (payload bytes)
//	offset 20 crc     uint32 (CRC-32C of the payload)
//	offset 24 payload
const (
	envelopeMagic   = "SMFS"
	EnvelopeVersion = 1
	// EnvelopeHeaderLen is the header's size: the payload of an
	// envelope file starts at this offset.
	EnvelopeHeaderLen = 24
)

// Envelope payload kinds. The kind is checked on read so a checkpoint
// file cannot be silently loaded where a model file is expected. Kinds
// are on disk, so every number is frozen (TestEnvelopeKindsFrozen).
// Kinds 5–8 (the monolithic dataset file, its build journal's shard and
// manifest, the feedback pattern sidecar) stay retired: reusing one
// would let an old file pass a new reader's kind check.
const (
	EnvelopeModel          uint32 = 1
	EnvelopeSelector       uint32 = 2
	EnvelopeCheckpoint     uint32 = 3
	EnvelopeDTree          uint32 = 4  // decision-tree selector, the serving ladder's fallback rung
	EnvelopeCorpusShard    uint32 = 9  // corpus store shard: a header frame, then a frame per record
	EnvelopeCorpusManifest uint32 = 10 // corpus store manifest: platform, format set, shard list
	EnvelopeCorpusIndex    uint32 = 11 // corpus store's cross-shard dedup index (advisory)
	EnvelopeFeedbackSeen   uint32 = 12 // fingerprints a feedback corpus has evicted
)

// Typed envelope errors. Callers match with errors.Is to distinguish
// "not a model file" from "damaged model file" from "future version".
var (
	// ErrBadMagic means the file is not an envelope at all (wrong tool,
	// wrong file, or a legacy raw-gob artifact).
	ErrBadMagic = errors.New("durable: not a recognised model file (bad magic)")
	// ErrTruncated means the file ended before the declared payload.
	ErrTruncated = errors.New("durable: model file truncated")
	// ErrChecksum means the payload bytes do not match their CRC.
	ErrChecksum = errors.New("durable: model file checksum mismatch (corrupt)")
	// ErrVersion means the envelope version is not supported.
	ErrVersion = errors.New("durable: unsupported model file version")
	// ErrWrongKind means the envelope holds a different artifact type.
	ErrWrongKind = errors.New("durable: model file holds a different artifact kind")
)

// castagnoli is the one CRC-32C table: the envelope's payload CRC and
// every record frame's CRC.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteEnvelopeFile atomically publishes payload wrapped in the
// versioned, checksummed envelope, through WriteFile: a crash mid-write
// can never leave a half-written file at the published path.
func WriteEnvelopeFile(path string, kind uint32, payload []byte) error {
	var hdr [EnvelopeHeaderLen]byte
	copy(hdr[0:4], envelopeMagic)
	binary.BigEndian.PutUint32(hdr[4:8], EnvelopeVersion)
	binary.BigEndian.PutUint32(hdr[8:12], kind)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[20:24], crc32.Checksum(payload, castagnoli))
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("durable: publishing %s: %w", path, err)
	}
	return nil
}

// ReadEnvelopeFile reads and validates an enveloped artifact of the
// given kind and returns its payload. All failure modes map to the
// typed errors above. The header's length sizes no allocation: a
// regular file's size bounds the payload, so a header that declares
// more bytes than follow it is ErrTruncated before any allocation.
func ReadEnvelopeFile(path string, kind uint32) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	avail := int64(-1)
	if fi.Mode().IsRegular() {
		avail = max(fi.Size()-EnvelopeHeaderLen, 0)
	}
	return readEnvelope(f, kind, avail)
}

// readEnvelope reads an envelope from r, known to hold avail bytes
// after the header (-1: unknown, as for a pipe). When avail is known, a
// declared length beyond it is ErrTruncated before anything is
// allocated, and the payload is allocated once; when it is not, the
// payload grows in bounded steps as its bytes arrive, so a lying header
// costs about what r held.
func readEnvelope(r io.Reader, kind uint32, avail int64) ([]byte, error) {
	hdr := make([]byte, EnvelopeHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: header short read: %v", ErrTruncated, err)
	}
	if string(hdr[0:4]) != envelopeMagic {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != EnvelopeVersion {
		return nil, fmt.Errorf("%w: file version %d, supported %d", ErrVersion, v, EnvelopeVersion)
	}
	if k := binary.BigEndian.Uint32(hdr[8:12]); k != kind {
		return nil, fmt.Errorf("%w: got kind %d, want %d", ErrWrongKind, k, kind)
	}
	n := binary.BigEndian.Uint64(hdr[12:20])
	var payload []byte
	var err error
	if avail >= 0 {
		if n > uint64(avail) {
			return nil, fmt.Errorf("%w: header declares %d payload bytes, %d follow it", ErrTruncated, n, avail)
		}
		payload = make([]byte, n)
		_, err = io.ReadFull(r, payload)
	} else {
		payload, err = io.ReadAll(io.LimitReader(r, int64(min(n, math.MaxInt64))))
	}
	if err == nil && uint64(len(payload)) < n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: payload short read: %v", ErrTruncated, err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(hdr[20:24]); got != want {
		return nil, fmt.Errorf("%w: crc %08x, header says %08x", ErrChecksum, got, want)
	}
	return payload, nil
}
