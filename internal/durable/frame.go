package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// A record frame is one self-checking record inside an envelope
// payload, so damage the envelope CRC catches can be salvaged record
// by record. Frame layout (big-endian):
//
//	u32 length (body bytes)
//	u32 CRC-32C (body bytes)
//	body
const frameHdrLen = 8

// maxFrameLen bounds a single frame; a declared length past it is
// treated as corruption, not an allocation request.
const maxFrameLen = 64 << 20

// AppendFrame appends body to dst as one record frame and returns the
// extended slice.
func AppendFrame(dst, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// WalkFrames returns the bodies of the valid frames of a payload (sub-
// slices of it) plus the count of frames it had to skip: CRC-bad but
// with a plausible length, so the chain past them is intact. The walk
// stops with an error at truncation or an implausible declared length —
// past that point frame boundaries are unknowable. The error says
// where the chain broke; callers wrap it in their own corruption error.
func WalkFrames(payload []byte) (frames [][]byte, skipped int, err error) {
	off := 0
	for off < len(payload) {
		if len(payload)-off < frameHdrLen {
			return frames, skipped, fmt.Errorf("trailing %d bytes are not a frame", len(payload)-off)
		}
		length := int(binary.BigEndian.Uint32(payload[off : off+4]))
		crc := binary.BigEndian.Uint32(payload[off+4 : off+8])
		if length <= 0 || length > maxFrameLen || off+frameHdrLen+length > len(payload) {
			return frames, skipped, fmt.Errorf("frame at offset %d declares %d bytes (payload %d)", off, length, len(payload))
		}
		body := payload[off+frameHdrLen : off+frameHdrLen+length]
		off += frameHdrLen + length
		if crc32.Checksum(body, castagnoli) != crc {
			skipped++
			continue
		}
		frames = append(frames, body)
	}
	return frames, skipped, nil
}
