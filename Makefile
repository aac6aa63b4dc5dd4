GO ?= go

.PHONY: check fmt vet build test race chaos fuzz-smoke bench-smoke bench-json bench-scale bench-remote bench-solver bench-sim bench-dist bench-fuzz bench-harness

# Full gate: formatting, static checks, build, tests, race detector on
# the concurrency-sensitive packages, chaos/recovery identity matrix.
check: fmt vet build test race chaos

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race gate covers every concurrency-sensitive package, including
# the v3 batching/pipelining layer (internal/remote: client send
# window, async flushes and server session live on different
# goroutines in every test that uses v3Pipe/TCP) and the parallel
# fuzzer (internal/fuzz: N workers over a lock-striped coverage map
# and a shared corpus).
race:
	$(GO) test -race ./internal/remote ./internal/target ./internal/core ./internal/snapshot ./internal/solver ./internal/expr ./internal/symexec ./internal/campaign ./internal/farm ./internal/dist ./internal/fuzz

# chaos runs the crash-safety identity matrix under the race detector:
# deterministic failure injection (panic/kill/hang/sever), journal
# resume (process death, torn tails, mismatched configs) and mid-run
# remote link failover. Every test asserts byte-identical results
# (bugs, paths AND virtual time) against an undisturbed run, on fixed
# chaos seeds so failures reproduce.
chaos:
	$(GO) test -race ./internal/core -run 'Chaos|Resume|Journal'
	$(GO) test -race ./internal/remote -run 'Failover|SeverLink|RecoverRetry'
	$(GO) test -race ./internal/journal

# fuzz-smoke runs each native fuzz target for 10 seconds: the paged
# symbolic memory against its byte-per-term reference model
# (internal/symexec) and the optimized solver against the plain one
# (internal/solver). A failing input is written to the package's
# testdata/fuzz directory and fails the target. For a longer run, call
# go test -fuzz with another -fuzztime directly.
fuzz-smoke:
	$(GO) test ./internal/symexec -run '^$$' -fuzz '^FuzzMemoryOps$$' -fuzztime 10s
	$(GO) test ./internal/solver -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime 10s

# bench-smoke runs every Benchmark* exactly once so benchmarks cannot
# silently rot without anyone noticing.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-json emits the experiments' machine-readable metrics, for
# recording BENCH_*.json trajectories across revisions.
bench-json:
	$(GO) run ./cmd/hsbench -json

# bench-scale exercises the parallel exploration engine under the race
# detector at 1 and 4 workers (E11 checks that both worker counts find
# identical path counts and bug sets).
bench-scale:
	$(GO) run -race ./cmd/hsbench -workers 1 e11
	$(GO) run -race ./cmd/hsbench -workers 4 e11

# bench-remote runs the remote-protocol latency experiment (E12) on a
# zero-latency loopback and with 500µs one-way injected latency; the
# experiment itself asserts the v3 round-trip reduction and the
# wall-clock win over the one-op-per-frame v2 leg.
bench-remote:
	$(GO) run ./cmd/hsbench -latency 0 e12
	$(GO) run ./cmd/hsbench -latency 500us e12

# bench-sim runs the RTL-engine study (E16). The experiment gates
# itself: >=5x compiled-vs-interpreter on busy logic, >=20x with
# activation on a quiescent SoC, cycle-exact differential identity and
# an unchanged exploration fingerprint — so this target fails on any
# engine semantics or performance regression.
bench-sim:
	$(GO) run ./cmd/hsbench e16

# bench-dist runs the distributed-exploration study (E17) over
# loopback TCP with 500µs one-way injected latency per side. The
# experiment gates itself: every leg's fingerprint byte-identical to
# the standalone runner, >=2x paths/sec with 3 warm nodes vs 1, and
# >=5x fewer snapshot bytes on the wire with the shared digest fabric
# than with independent per-node caches.
bench-dist:
	$(GO) run ./cmd/hsbench e17

# bench-fuzz runs the hybrid-fuzzing study (E18). The experiment
# gates itself: >=10x execs per virtual second with parallel workers
# vs the frozen map-based reference fuzzer, identical deduplicated
# crash buckets in single-worker fixed-seed mode, and the hybrid
# concolic loop beating both fuzz-only and symexec-only to a
# magic-guarded bug — so this target fails on any fuzzer throughput
# or fidelity regression.
bench-fuzz:
	$(GO) run ./cmd/hsbench e18

# bench-solver A/B-tests the solver optimization stack (E13): the
# experiment itself gates on identical paths/bugs/virtual times with
# the stack on vs off and on a >=2x SAT-effort reduction on the
# exploration workloads.
bench-solver:
	$(GO) run ./cmd/hsbench -json e13

# bench-harness vets and tests the wall-clock benchmark in hsperf/. It
# is a Go module of its own (it replaces hardsnap with ../), so the
# root ./... targets above skip it; this catches an internal/ API
# change that would break the benchmark build.
bench-harness:
	cd hsperf && $(GO) vet ./... && $(GO) test ./...
