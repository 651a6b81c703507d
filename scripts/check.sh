#!/usr/bin/env bash
# check.sh is the repository's tier-1 verification gate: build, go vet,
# gofmt, the custom flatlint static-analysis pass, the unit tests, and the
# race detector on the concurrent packages (the ctrl control plane spawns
# per-connection goroutines, and its in-process plant runs a Serve loop
# plus one agent and heartbeat goroutine per pod, all joined by Close;
# parallel is the deterministic fan-out runner;
# graph, metrics, faults, chaos, and experiments fan their sweeps out
# through it; netsim starts no goroutine itself, but experiments runs its
# packet simulations side by side on networks that share tables, and its
# fluid and packet loops poll a context; flatlint parses and
# type-checks packages concurrently; serve multiplexes HTTP requests over
# a bounded solver pool and store takes concurrent Put/Get; and every
# effective network of one flat-tree shares that flat-tree's node table,
# base cabling and converter plant, so core, topo, converter and the three
# other topology builders run under the detector too). The unit-test
# leg runs with -shuffle=on so inter-test ordering dependencies surface,
# the flatlint leg archives its -json findings as FLATLINT.json at the
# repository root, and a short fuzz leg exercises the /v1/cell query parser,
# the two SSSP kernels' agreement, the path-length kernel against BFS, the
# max-flow kernel against the simplex LP, the solver's certificate (FPTAS
# bracket, exact star path) against the exact LP, and the control plane's
# wire decoders.
# CI and local development both run exactly this script:
#
#	./scripts/check.sh
#
# Every step must pass; the first failure stops the run.
#
# check.sh verifies correctness only. Performance is measured by the
# ledger: `go run ./benchmark` (see BENCHMARK.json and benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^internal/flatlint/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== flatlint"
# The -json artifact is archived at the repository root so a CI run
# leaves a machine-readable record ([] when clean). flatlint exits 1
# on findings, which stops the run after the artifact is written.
go run ./cmd/flatlint -json ./... > FLATLINT.json || {
    echo "flatlint: findings (see FLATLINT.json):" >&2
    go run ./cmd/flatlint ./... >&2 || true
    exit 1
}

echo "== go test"
go test -shuffle=on ./...

echo "== go test -race (concurrent packages)"
go test -race ./internal/ctrl/... ./internal/netsim/... \
    ./internal/parallel/... ./internal/graph/... ./internal/metrics/... \
    ./internal/faults/... ./internal/chaos/... ./internal/experiments/... \
    ./internal/flatlint/... ./internal/serve/... ./internal/store/... \
    ./internal/core/... ./internal/topo/... ./internal/converter/... \
    ./internal/fattree/... ./internal/jellyfish/... ./internal/twostage/...

echo "== store crash-recovery (kill -9 mid-write, then reopen)"
# The child-process fault-injection test: a writer is SIGKILLed mid-Put
# and the reopened store must quarantine torn state and verify every
# surviving entry byte-exactly. Run explicitly so the suite's one
# non-deterministic-by-design test is visible as its own leg.
go test -run 'TestKill9MidWriteRecovery' -count=1 ./internal/store

echo "== serve smoke (build the binary, cold/warm cell, SIGTERM drain)"
# End-to-end through the built flatsim binary: start `flatsim serve` on
# an ephemeral port, issue a cold then warm request (miss then hit,
# byte-identical), SIGTERM, and require a clean drain with the cell
# persisted.
go test -run 'TestServeSmokeEndToEnd' -count=1 ./cmd/flatsim

echo "== soak smoke (bounded chaos soak, fixed seed)"
# A tiny end-to-end soak through the real CLI: small k, short virtual
# horizon, fixed seed. Proves the subcommand wiring (knob-table flags,
# table emission) against a live control plane; the
# determinism and overlap guarantees are pinned by the chaos and
# experiments test suites above.
go run ./cmd/flatsim -kmax 4 -eps 0.3 -rate 2 -horizon 3 -seed 1 \
    -tsv soak > /dev/null

echo "== examples smoke (the in-process control-plane callers no test runs)"
# Both control-plane examples and `flatctl demo` stand up a ctrl plant,
# convert over it and tear it down; each must exit 0.
go run ./examples/adaptive > /dev/null
go run ./examples/controlplane > /dev/null
go run ./cmd/flatctl demo -k 4 > /dev/null

echo "== bench smoke (1 iteration; compiles and runs the kernel benches)"
# One pinned iteration of the SSSP kernel benchmarks, of the root package's
# path-length benchmark and its three simulator benchmarks (netsim.MaxMin and
# netsim.Fluid are reached from benches and examples only), of the solver's
# all-to-all chain and of its exact star path up to k=48: not a perf
# measurement (that is `go run ./benchmark`), just proof the bench harness
# still builds and the kernels still run. Catches bit-rot in bench-only code
# paths that go test -run never executes.
go test -run '^$' -bench 'BenchmarkDijkstra|BenchmarkDeltaStep' \
    -benchtime 1x ./internal/graph > /dev/null
go test -run '^$' \
    -bench 'BenchmarkAPL|BenchmarkAblationRouting|BenchmarkDynsimFCT|BenchmarkLatency' \
    -benchtime 1x . > /dev/null
go test -run '^$' -bench 'BenchmarkSolverAllToAllChain|BenchmarkStar' \
    -benchtime 1x ./internal/mcf > /dev/null

echo "== fuzz (10s each: /v1/cell query parser, SSSP kernel agreement, path-length kernel, max-flow kernel, solver certificate, ctrl wire codec)"
# The one knob parser behind both flatsim's flags and /v1/cell: no panic on
# arbitrary queries, canonical re-encoding keeps the content address, and
# parameter order never matters. Then the radix-heap kernel against the
# 4-ary heap on generated multigraphs and lengths (zeros, denormals,
# 1e-300..1e300): bit-identical Dist/Prev, clean workspace. Then the
# 64-source bit-parallel BFS against BFSInto on generated multigraphs, kept
# node sets and source lists: the whole distance matrix equal. Then the
# Dinic max-flow workspace on generated multigraphs (parallel edges,
# fractional capacities and drains) against the simplex LP: same value,
# conservation, a saturated cut of that value. Then the solver on generated
# k=4 flat-tree instances (mode, commodities, demand scale, ε) against the
# exact LP: λ ≤ λ_LP ≤ UpperBound and λ ≥ (1−3ε)·λ_LP from the FPTAS,
# λ = λ_LP to 1e-9 with a closed certificate when the instance is a star,
# and a re-solve on used scratch bit-identical to the fresh one. Last, the
# control plane's frame reader and payload decoders on arbitrary bytes: an
# error rather than a panic, and whatever they accept re-encodes to the same
# bytes. The checked-in seed corpora
# (internal/{serve,graph,mcf}/testdata/fuzz) and the wire target's in-code
# seeds already ran in the unit-test leg; this leg mutates from them.
go test -run '^$' -fuzz 'FuzzCellQuery' -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz 'FuzzSSSPKernelsAgree' -fuzztime 10s ./internal/graph
go test -run '^$' -fuzz 'FuzzHopKernelAgrees' -fuzztime 10s ./internal/graph
go test -run '^$' -fuzz 'FuzzMaxFlowMatchesLP' -fuzztime 10s ./internal/graph
go test -run '^$' -fuzz 'FuzzSolverCertificate' -fuzztime 10s ./internal/mcf
go test -run '^$' -fuzz 'FuzzWireFrame' -fuzztime 10s ./internal/ctrl

echo "ok: all checks passed"
