package main

import (
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	// request 100
	// ├ sparse.parse 30
	// ├ sparse.fingerprint 5
	// └ serve.batch 40
	//     └ serve.rung 35
	//         └ selector.predict 50 (a replay slower than the original:
	//             │                  the rung's self time clamps at 0)
	//             ├ represent.normalize 10
	//             └ nn.forward 25
	rec := newRecorder(time.Time{})
	root := rec.addNs(0, 1, "request", 0, 100, false)
	rec.addNs(root, 1, "sparse.parse", 200, 230, true)
	rec.addNs(root, 1, "sparse.fingerprint", 230, 235, true)
	batch := rec.addNs(root, 1, "serve.batch", 50, 90, false)
	rung := rec.addNs(batch, 1, "serve.rung", 52, 87, false)
	predict := rec.addNs(rung, 1, "selector.predict", 300, 350, true)
	rec.addNs(predict, 1, "represent.normalize", 400, 410, true)
	rec.addNs(predict, 1, "nn.forward", 410, 435, true)

	self := selfTimes(rec.spans)
	for id, want := range map[int]float64{root: 25, batch: 5, rung: 0, predict: 15} {
		if self[id] != want {
			t.Errorf("self time of %s = %g, want %g", rec.spans[id-1].Name, self[id], want)
		}
	}
	layers := layerSelf(rec.spans)
	for layer, want := range map[string]float64{"": 25, "sparse": 35, "serve": 5, "selector": 15, "represent": 10, "nn": 25} {
		if layers[layer] != want {
			t.Errorf("layer %q self time = %g, want %g", layer, layers[layer], want)
		}
	}
	if got := medianUs(rec.spans, "sparse.parse"); got != 0.03 {
		t.Errorf("median parse = %gus, want 0.03", got)
	}
	if got := medianUs(rec.spans, "no.such.span"); got != 0 {
		t.Errorf("median of an absent span = %g, want 0", got)
	}
}
