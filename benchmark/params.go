package main

import (
	"time"

	"repro/internal/core"
)

// Fixed parameters: identical on every commit, never re-calibrated at
// run time. BENCHMARK.json has a closed schema (command, paths,
// run_seconds, workloads and the two metric lists), so the constants
// the issue wanted recorded there live here and in README.md instead.

// The model every workload runs against. Its seed is fixed; the
// workload seed (-seed) only ever reaches generated inputs.
var modelOptions = core.Options{Platform: "xeonlike", Count: 600, MaxN: 2048, Epochs: 12, Seed: 1}

const (
	// Server configuration: the flag defaults of cmd/serve and
	// cmd/router (zero values below them) except the cache size (in
	// sizes).
	fleetSLOTarget = 100 * time.Millisecond
	// cmd/serve's feedback flag defaults (the package zero values differ).
	feedbackSegmentBytes = 1 << 20
	feedbackSegmentAge   = 30 * time.Second

	// Windows. A run measures for -seconds; warm-up is a fifth of that
	// (the issue's 4 s : 20 s), and each fleet_open stage is 0.6 of it
	// (the issue's 12 s : 20 s).
	defaultSeconds  = 15
	warmupShare     = 0.2
	fleetStageShare = 0.6
	// Traced runs split the window: an untraced reference half, then the
	// traced half.
	tracedShare = 0.5

	// Serving traffic.
	serveMaxN       = 384
	hotZipfS        = 1.2
	hotMMEvery      = 4 // every 4th pool entry is sent as Matrix Market text
	hotClients      = 2
	fleetZipfS      = 1.1
	fleetConns      = 2
	goodputLimit    = 50 * time.Millisecond
	replaySampleCap = 300 // traced requests replayed through the layers after the window

	// fleet_open arrival rates, sized once on the 2-core sandbox as
	// about 0.25x and 0.4x of the 2-client closed-loop capacity through
	// the router (see README.md, "How the constants were sized").
	fleetRateR1 = 75.0
	fleetRateR2 = 120.0
	// Warm-up offers about what the fleet can take, so that the short
	// warm-up window fills the replicas' caches: warmed at r1, stage r1
	// still ran at a 0.70 hit share against r2's 0.83, and its median sat
	// on the boundary between hits and misses.
	fleetRateWarm = 300.0

	// offline_select. K was sized so that decision, conversion and
	// kernel time are each at least 15% of the solve time at seed 1.
	offlineK        = 10 // SpMV iterations per solve
	offlineKRepeats = 3  // each K-loop is timed this many times, median taken
	yTolerance      = 1e-9

	retrainTestShare = 1.0 / 3 // two of the six shards are held out
	retrainIngests   = 3       // ingests per cycle; the last one is trained on
)

// sizes are the input counts of the workloads. The benchmark always runs
// at fullSizes; the tests run the same code at a scale that finishes in
// seconds.
type sizes struct {
	// Set-up runs at least setupRepeats times and for at least setupFor
	// (see repeatSetup).
	setupRepeats int
	setupFor     time.Duration
	// cacheSize is the servers' prediction-cache capacity: smaller than
	// cmd/serve's default so that pools larger than the cache stay small
	// in memory.
	cacheSize int
	lonePool  int // twice cacheSize, cycled in order: the LRU never hits
	hotPool   int
	fleetPool int
	// serveCandidates is how many matrices a serving pool is stratified
	// out of (see stratify); offlineCandidates likewise.
	serveCandidates int

	offlinePool, offlineCandidates, offlineMaxN int

	retrainSpecs, retrainShard, retrainEpochs int
}

var fullSizes = sizes{
	setupRepeats:    25,
	setupFor:        300 * time.Millisecond,
	cacheSize:       256,
	lonePool:        512,
	hotPool:         64,
	fleetPool:       1024,
	serveCandidates: 1024,
	offlinePool:     200, offlineCandidates: 1000,
	offlineMaxN:  4096,
	retrainSpecs: 600, retrainShard: 100, retrainEpochs: 10,
}
