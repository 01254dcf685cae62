GO ?= go

.PHONY: build test check smoke corpusdrill clusterdrill overloaddrill shepherddrill fuzz bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate (scripts/check.sh): gofmt, build, vet, the
# benchmark module's vet and tests, the five real-binary drills (serve
# smoke, corpus kill→resume, cluster chaos, overload control, continual
# learning), a fuzz smoke, and the full test suite under the race
# detector (worker pools, the checkpointer and the serving tier are all
# concurrency-sensitive), then five more race runs of the cluster suite.
# SHORT=1 shortens the drills and skips the long experiment
# reproductions.
check:
	./scripts/check.sh

# The five real-binary drills, one target each; what a drill proves is
# the doc comment of its scripts/<name>/main.go, and internal/drill is
# the harness they share.
smoke:
	$(GO) run ./scripts/servesmoke

corpusdrill:
	$(GO) run ./scripts/corpusdrill

clusterdrill:
	$(GO) run ./scripts/clusterdrill

overloaddrill:
	$(GO) run ./scripts/overloaddrill

shepherddrill:
	$(GO) run ./scripts/shepherddrill

# fuzz runs the native fuzz targets over the hardened ingestion
# surfaces (MatrixMarket parsing, the predict request path, the JSON
# body scanner against its encoding/json reference, opening and
# salvaging a corpus store) and the differential ones (the statistics
# sweep against its map-based reference, the labeler's noise source
# against math/rand, the dense layer's four-row forward and params-only
# backward against their row-at-a-time references, the convolution
# layer's forward and backward against the im2col path's summation
# orders), loading a model file whose blob may declare sizes its
# bytes do not back, and loading a selector or decision tree whose
# blob may name a format that does not exist. Budget per target is
# FUZZTIME (default 30s); CI runs a shorter smoke via scripts/check.sh. Every target runs under a
# 2.5 GB address-space cap: an allocation sized from a declared length
# rather than the bytes behind it fails the target instead of
# exhausting the host.
FUZZTIME ?= 30s
FUZZ = ulimit -v 2500000 && $(GO) test -run='^$$' -fuzztime=$(FUZZTIME)
fuzz:
	($(FUZZ) -fuzz='^FuzzReadMatrixMarket$$' ./internal/sparse)
	($(FUZZ) -fuzz='^FuzzComputeStats$$' ./internal/sparse)
	($(FUZZ) -fuzz='^FuzzPredictJSON$$' ./internal/serve)
	($(FUZZ) -fuzz='^FuzzDecodeJSONDifferential$$' ./internal/serve)
	($(FUZZ) -fuzz='^FuzzLoadDataset$$' ./internal/dataset)
	($(FUZZ) -fuzz='^FuzzSalvageShard$$' ./internal/dataset)
	($(FUZZ) -fuzz='^FuzzSeededSource$$' ./internal/machine)
	($(FUZZ) -fuzz='^FuzzDenseRows$$' ./internal/nn)
	($(FUZZ) -fuzz='^FuzzConv2D$$' ./internal/nn)
	($(FUZZ) -fuzz='^FuzzLoadModel$$' ./internal/nn)
	($(FUZZ) -fuzz='^FuzzLoadSelector$$' ./internal/selector)

# bench runs every benchmark in the module (the per-paper-table harness
# at the root plus the per-package hot-path benchmarks) and converts
# the output into BENCH.json for artifact upload and regression gating.
# benchgate compares BENCH.json against the committed fixed-seed
# baseline and fails on >25% ns/op regressions (and allocs/op
# regressions — with a baseline of 0 gated exactly) on guarded hot
# paths. The guarded hot paths get extra -count=3 samples; benchjson
# keeps the fastest run per benchmark, and min-of-N is what makes a
# 25% gate threshold hold on noisy shared runners. -benchmem is
# mandatory on the guarded run: the alloc columns are part of the gate.
BENCHTIME ?= 200ms
GUARDED_PKGS = ./internal/spmv ./internal/represent ./internal/serve ./internal/dataset ./internal/nn ./internal/sparse ./internal/selector ./internal/machine ./internal/dtree
GUARDED_BENCH = 'KernelMul|Normalize|Predict|Decode|Fingerprint|ShardIter|Infer32|TrainStream|ComputeStats|Convert|Label|Load|Transfer'
bench:
	$(GO) test -bench=. -benchtime=$(BENCHTIME) -benchmem -run=^$$ ./... > BENCH.txt || { cat BENCH.txt; exit 1; }
	$(GO) test -bench=$(GUARDED_BENCH) -benchtime=$(BENCHTIME) -benchmem -count=3 -run=^$$ $(GUARDED_PKGS) >> BENCH.txt || { cat BENCH.txt; exit 1; }
	cat BENCH.txt
	$(GO) run ./scripts/benchjson -o BENCH.json < BENCH.txt

# bench-guarded runs only the guarded hot-path benchmarks — the set
# benchgate actually gates — with -benchmem at -count=3 (benchjson
# keeps the fastest run and the minimum alloc columns). This is what
# the CI perf job runs: minutes instead of the full harness's hour,
# tight enough to sit on every pull request.
.PHONY: bench-guarded
bench-guarded:
	$(GO) test -bench=$(GUARDED_BENCH) -benchtime=$(BENCHTIME) -benchmem -count=3 -run=^$$ $(GUARDED_PKGS) > BENCH.txt || { cat BENCH.txt; exit 1; }
	cat BENCH.txt
	$(GO) run ./scripts/benchjson -o BENCH.json < BENCH.txt

.PHONY: benchgate
benchgate:
	$(GO) run ./scripts/benchgate -baseline BENCH_baseline.json -current BENCH.json
