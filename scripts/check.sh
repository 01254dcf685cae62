#!/usr/bin/env bash
# CI gate: build everything, vet, run the five real-binary drills, a
# fuzz smoke, the full test suite with the race detector, then a race
# stress pass over the cluster router. SHORT=1
# shortens the drills, narrows the race run to the internal packages
# (skipping the slow experiment reproductions at the repo root) and runs
# internal/experiments with -short, which its long reproductions honour.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting gate: gofmt is the one true style; a non-empty file list
# fails the build with the offending paths.
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Durability gate: internal/durable is the one place that renames a
# file or computes a CRC. A non-test file elsewhere that does either
# has skipped the directory fsync or grown a second on-disk checksum.
stray="$(grep -rln --include='*.go' -e 'os\.Rename(' -e '"hash/crc32"' . \
    | grep -v '_test\.go$' | grep -v '^\./internal/durable/' || true)"
if [[ -n "$stray" ]]; then
    echo "durable: rename or CRC outside internal/durable (use durable.Rename / the envelope):" >&2
    echo "$stray" >&2
    exit 1
fi

go build ./...
go vet ./...

# The end-to-end harness is a module of its own (benchmark/go.mod), so
# ./... above never reaches it; it calls internal/... by name, and a
# signature change there must fail here, not in the next benchmark run.
go vet -C benchmark .
go test -C benchmark .

# Static analysis: staticcheck (bug-pattern lints beyond vet) and
# govulncheck (known-vulnerable call paths in the dependency graph),
# both version-pinned so CI cannot drift onto a lint set nobody
# reviewed. SHORT=1 skips — the short gate is the fast merge loop and
# these tools dominate its runtime on a cold cache. A missing tool is
# installed into GOPATH/bin when the network allows; an offline
# checkout logs a warning and continues, because a sandbox without
# egress must still be able to run the gate.
STATICCHECK_VERSION=v0.6.1
GOVULNCHECK_VERSION=v1.1.4
if [[ "${SHORT:-0}" != "1" ]]; then
    export PATH="$(go env GOPATH)/bin:$PATH"
    if ! command -v staticcheck >/dev/null 2>&1; then
        go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" || true
    fi
    if command -v staticcheck >/dev/null 2>&1; then
        staticcheck ./...
    else
        echo "warning: staticcheck unavailable (offline?), skipping" >&2
    fi
    if ! command -v govulncheck >/dev/null 2>&1; then
        go install "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" || true
    fi
    if command -v govulncheck >/dev/null 2>&1; then
        govulncheck ./...
    else
        echo "warning: govulncheck unavailable (offline?), skipping" >&2
    fi
fi

# The five real-binary drills (internal/drill is their shared harness;
# what each one proves is the doc comment of its scripts/<name>/main.go):
# serve smoke, corpus kill->resume, cluster replica kill, overload surge,
# continual-learning loop. SHORT=1 runs the four that have one with
# -short.
go run ./scripts/servesmoke
for drill in corpusdrill clusterdrill overloaddrill shepherddrill; do
    if [[ "${SHORT:-0}" == "1" ]]; then
        go run "./scripts/$drill" -short
    else
        go run "./scripts/$drill"
    fi
done

# Fuzz smoke: a short native-fuzzing budget per hardened ingestion
# surface, plus the statistics sweep against its map-based reference,
# the labeler's noise source against math/rand, the dense layer's
# four-row forward and params-only backward against their row-at-a-time
# references, the convolution layer against its im2col reference, and
# model, selector and decision-tree loading over arbitrary blobs. A
# clean run means no panic, no typed-error-taxonomy violation, no Stats
# field, draw or weight bit that differs and no loaded artifact naming
# an unknown format found within the budget; regressions crash the
# script.
# Every target runs under a 2.5 GB address-space cap, so an allocation
# sized from a declared length instead of the bytes behind it is a
# failing input rather than an exhausted host.
fuzz() {
    (ulimit -v 2500000 && go test -run='^$' -fuzz="^$1\$" -fuzztime=10s "$2")
}
fuzz FuzzReadMatrixMarket ./internal/sparse
fuzz FuzzComputeStats ./internal/sparse
fuzz FuzzPredictJSON ./internal/serve
fuzz FuzzDecodeJSONDifferential ./internal/serve
fuzz FuzzLoadDataset ./internal/dataset
fuzz FuzzSalvageShard ./internal/dataset
fuzz FuzzSeededSource ./internal/machine
fuzz FuzzDenseRows ./internal/nn
fuzz FuzzConv2D ./internal/nn
fuzz FuzzLoadModel ./internal/nn
fuzz FuzzLoadSelector ./internal/selector

# The experiment reproductions take ~2 minutes without the race
# detector and several times that with it; the default 10m per-package
# timeout is too tight.
if [[ "${SHORT:-0}" == "1" ]]; then
    go test -race -timeout 45m $(go list ./internal/... | grep -v '/internal/experiments$')
    go test -race -short -timeout 45m ./internal/experiments
else
    go test -race -timeout 45m ./...
fi

# Stress pass over the router: its tests drive real loopback replicas,
# deadlines and breakers, so five race-detector runs in a row are what
# turns a timing- or port-dependent test into a failing gate.
go test -race -count=5 ./internal/cluster
