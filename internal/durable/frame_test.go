package durable

import (
	"slices"
	"testing"
)

// WalkFrames returns every frame AppendFrame wrote, skips (and counts)
// a frame whose body no longer matches its CRC, and stops with an
// error at a chain it can no longer follow.
func TestWalkFrames(t *testing.T) {
	bodies := [][]byte{[]byte("header"), []byte("record one"), []byte("record two")}
	var payload []byte
	for _, b := range bodies {
		payload = AppendFrame(payload, b)
	}
	frames, skipped, err := WalkFrames(payload)
	if err != nil || skipped != 0 || !slices.EqualFunc(frames, bodies, slices.Equal) {
		t.Fatalf("intact chain: frames %q, skipped %d, err %v", frames, skipped, err)
	}

	damaged := slices.Clone(payload)
	damaged[frameHdrLen+len(bodies[0])+frameHdrLen] ^= 0xff // first byte of "record one"
	frames, skipped, err = WalkFrames(damaged)
	if err != nil || skipped != 1 || len(frames) != 2 || string(frames[1]) != "record two" {
		t.Fatalf("one bad body: frames %q, skipped %d, err %v", frames, skipped, err)
	}

	for _, cut := range []int{len(payload) - 1, len(payload) - len(bodies[2]) - 3} {
		frames, _, err = WalkFrames(payload[:cut])
		if err == nil || len(frames) != 2 {
			t.Fatalf("cut at %d: frames %q, err %v; want the first two and an error", cut, frames, err)
		}
	}

	huge := AppendFrame(nil, []byte("x"))
	huge[0] = 0xff // declares a ~4 GiB frame
	if _, _, err := WalkFrames(huge); err == nil {
		t.Fatalf("implausible length accepted: % x", huge)
	}
}
