GO ?= go

.PHONY: all build test test-short race vet fmt-check ci bench bench-smoke bench-agg bench-guard bench-harness test-purego test-attacks test-chaos test-codec test-resume test-cli trace-smoke fuzz-smoke docs-check clean

# The substrate microbenchmarks bench-smoke runs once each.
MICRO_BENCH = BenchmarkMatMul128$$|BenchmarkConvForward$$|BenchmarkConvBackward$$|BenchmarkClassifierTrainEpoch$$|BenchmarkClassifierInfer$$|BenchmarkCVAEStep$$|BenchmarkCVAEStepContended$$|BenchmarkSigmoidForward$$|BenchmarkCVAETrainEpoch$$|BenchmarkAdamStep$$|BenchmarkDecoderGenerate$$|BenchmarkFedGuardSynthesize$$|BenchmarkFedGuardAudit$$|BenchmarkGenerate$$|BenchmarkGenerateSubset$$|BenchmarkGenerateLabels$$
# The wire-layer microbenchmarks (raw vs codec framing and the per-round
# byte cost).
WIRE_BENCH = BenchmarkWireWriteUpdate$$|BenchmarkWireReadUpdate$$|BenchmarkRoundWireBytes$$
# The codec kernels and the server's encode-once broadcast fan-out.
CODEC_BENCH = BenchmarkCodecEncode$$|BenchmarkCodecEncodeDelta$$|BenchmarkCodecHash$$
FANOUT_BENCH = BenchmarkServerBroadcastFanout$$
# The checkpoint write-cost benchmarks (round-file serialization alone,
# and the steady-state durable path: list, fsync, rename, no decoder
# rewritten), at the quick and default preset shapes.
CKPT_BENCH = BenchmarkCheckpointWrite$$|BenchmarkCheckpointSave$$
# The aggregation-kernel benchmarks (robust strategy math on the blocked
# reduction kernels at model dimension).
AGG_BENCH = BenchmarkAggregateFedAvg$$|BenchmarkKrumScores$$|BenchmarkGeoMed$$|BenchmarkCoordinateMedian$$|BenchmarkServerApply$$

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# race also runs the classifier worker set's own test ten times over —
# many goroutines borrowing from one set, one of them panicking mid-hold —
# and the bound it puts on client work: at width two, no more than two
# clients between classifier and CVAE training at once, co-located over
# TCP and in process.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 -run 'TestSetBoundsBorrowers|TestClientRoundsHoldTheirWorker' ./internal/classifier/ ./internal/fednet/

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would rewrite any Go file in the
# repository, the benchmark module's included, and lists them.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# ci is the gate for every change: static analysis, gofmt-clean sources,
# the short test suite under the race detector (telemetry and fednet are
# concurrent), one iteration of every substrate microbenchmark so a
# broken kernel fails fast even when its unit tests are skipped, the
# adversary-suite gate, the fault-injection chaos suite, the
# lossless-codec stack, the crash-recovery kill/resume drill, the
# command-line gate (flag surfaces and fednode == fedsim), the
# distributed-tracing smoke run, bounded fuzz passes over the wire,
# codec, and checkpoint decoders and the server's update edge, the
# benchmark module's own vet and tests, the compute substrate again on
# its scalar kernels, and the docs' path and make target references.
ci: vet fmt-check race test-purego bench-smoke bench-guard bench-harness test-attacks test-chaos test-codec test-resume test-cli trace-smoke fuzz-smoke docs-check

# docs-check fails when README.md, DESIGN.md or EXPERIMENTS.md names a
# repo path or a make target that does not exist, or an invocation of a
# repo command names a flag that command does not define.
docs-check:
	$(GO) test -run 'TestDocsReferencesExist' .

# test-purego reruns the compute substrate with the assembly kernels
# compiled out. The bitwise kernel tables and TestOracle — the executable
# Algorithm 1 in oracle_test.go, which federations and cvae.Train must
# match bit for bit — then hold the scalar matmul, reduction and Adam loops
# to the same spec the default build's kernels meet. The default build on
# an AVX-512 host runs the ZMM tile; the YMM tile stays covered by
# TestWideTileKernel, which holds ZMM to YMM. internal/rng and
# internal/dataset ride along for the skip-draw walk: its bitwise tables
# and Generate's pinned bytes must not depend on the build either.
# internal/defense runs the server's view decoders and the audit plan, on
# both schedules and against its straight-line reference, on the scalar
# forward form (MatMulT against W as stored), which no default build
# reaches.
test-purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/opt ./internal/loss ./internal/cvae ./internal/classifier ./internal/defense ./internal/rng ./internal/dataset
	$(GO) test -tags purego -run TestOracle .

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# bench-smoke runs each tracked microbenchmark exactly once as a
# build-and-run sanity gate (seconds, not minutes).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(MICRO_BENCH)' -benchmem -benchtime=1x .
	$(GO) test -run '^$$' -bench '$(WIRE_BENCH)' -benchmem -benchtime=1x ./internal/wire/
	$(GO) test -run '^$$' -bench '$(CODEC_BENCH)' -benchmem -benchtime=1x ./internal/codec/
	$(GO) test -run '^$$' -bench '$(FANOUT_BENCH)' -benchmem -benchtime=1x ./internal/fednet/
	$(GO) test -run '^$$' -bench '$(CKPT_BENCH)' -benchmem -benchtime=1x ./internal/persist/
	$(GO) test -run '^$$' -bench '$(AGG_BENCH)' -benchmem -benchtime=1x .

# bench-agg runs the aggregation-kernel benchmarks once — the quick
# sanity check after touching internal/tensor or internal/aggregate.
bench-agg:
	$(GO) test -run '^$$' -bench '$(AGG_BENCH)' -benchmem -benchtime=1x .

# bench-guard re-measures the round-pipeline critical benchmarks and
# fails if any exceed the ceilings committed in BENCH_guard.json — the
# regression tripwire for the pooled frame writer, the frame reader (one
# allocation per decoded vector, none for the decoder itself), the codec
# fast paths,
# the per-round checkpoint cost (round-file serialization, and a
# steady-state save that must not re-serialise a decoder: ≤ 1 MB B/op
# beside 25 MB of referenced payloads), the blocked aggregation kernels,
# the classifier's train epoch (its time: ≈ 2× a reading on the conv
# blocks, each one pass per image both ways), the CVAE's step, alone and with two steppers holding
# both compute slots of a width-2 set (≈ 3× its time, 0 allocs/op and
# ≤ 1 sched/op: ≈ 2 means products split into slots other borrowers
# hold again), the decoder's sigmoid over a 32 × 794 batch (≈ 3× the
# vector kernel's time, 0 allocs/op; the scalar loop reads ≈ 8× slower),
# a CVAE train epoch on a kept model
# (≤ 64 KiB B/op: an Adam built per Train is 3.3 MB), the server's
# per-round synthesis (its time, and ≤ 3 MiB B/op for sixteen decoders:
# a decoder copied out of its payload again is 1.69 MB each), one audit
# scoring job (a LoadParams and four 25-row evaluation forwards:
# 0 allocs/op, and twice its time is the im2col forward back), the
# whole barrier audit of sixteen updates (sixteen synthesis jobs and
# sixteen full-set scoring jobs: a plan back to scoring per block, or
# copying the set per update, shows in its time or its 4.5 MiB B/op
# ceiling), a networked client's data
# (the skip-draw walk's time, and that it keeps a partition and not the
# training set), and a client's round after its first (≤ 1 MiB B/op: it
# trains on the worker it borrowed before; a model built per round is
# 9.8 MB), and the round engine's finite-value admission of one
# default-preset FedGuard update (≈ 0.14–0.30 ms for 227 908 floats
# read in place: 0 allocs/op). Ceilings are loose (≈2-3× the measured
# numbers) so CI noise passes but a lost fast path or reintroduced
# per-op allocation fails. Each benchmark runs three times and the gate
# reads the fastest of the three (benchjson keeps the minimum ns/op and
# the minimum of each metric per name): load on the host only slows a
# run, so one loaded count no longer fails code nobody changed.
bench-guard:
	{ $(GO) test -run '^$$' -count 3 -bench 'BenchmarkWireWriteUpdate$$|BenchmarkWireReadUpdate$$' -benchmem -benchtime=50x ./internal/wire/ ; \
	  $(GO) test -run '^$$' -count 3 -bench '$(CKPT_BENCH)' -benchmem -benchtime=50x ./internal/persist/ ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkKrumScores$$|BenchmarkGeoMed$$|BenchmarkCoordinateMedian$$|BenchmarkServerApply$$' -benchmem -benchtime=20x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkClassifierTrainEpoch$$|BenchmarkCVAEStep$$|BenchmarkCVAETrainEpoch$$' -benchtime=20x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkCVAEStepContended$$|BenchmarkSigmoidForward$$' -benchmem -benchtime=100x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkFedGuardSynthesize$$' -benchmem -benchtime=50x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkClassifierInfer$$' -benchmem -benchtime=100x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkFedGuardAudit$$' -benchmem -benchtime=20x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkGenerateSubset$$/3000x100$$' -benchmem -benchtime=20x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkClientRoundWarm$$' -benchmem -benchtime=20x . ; \
	  $(GO) test -run '^$$' -count 3 -bench 'BenchmarkAdmitUpdate$$' -benchmem -benchtime=200x ./internal/fl/ ; } \
		| $(GO) run ./cmd/benchjson -guard BENCH_guard.json

# bench-harness vets and tests benchmark/, the ledger's program. It is
# its own module, so `go build ./...` and `go test ./...` never see it,
# yet it compiles against internal/fl, fednet, experiment, wire and
# persist: a refactor of those must not break the ledger silently.
bench-harness:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# test-attacks is the adversary-suite gate: the attack unit tests, the
# fl-layer hook-dispatch and cohort-rewrite tests, the loopback proof
# that colluding attacks over TCP equal the in-process ones, and the
# matrix smoke (a 2×3 grid asserting the pinned CSV byte for byte at
# -matrix-workers 1 and 3). Race on — the cohort hook and the matrix
# worker pool are concurrent.
test-attacks:
	$(GO) test -race ./internal/attack/
	$(GO) test -race -run 'Attack|Cohort|StreamByDefault' ./internal/fl/
	$(GO) test -race -run 'CohortAttack' ./internal/fednet/
	$(GO) test -race -run 'Matrix|Fig5Runner|AblationRunners|OverheadRunner' ./internal/experiment/

# test-chaos runs the deterministic fault-injection suite — the faultnet
# wrappers plus the fednet chaos/rejoin/quorum tests (skipped under
# -short) — with the race detector on, since every scenario exercises
# concurrent drops, retries, and rejoins.
test-chaos:
	$(GO) test -race ./internal/faultnet/
	$(GO) test -race -run 'Chaos|Fault|Rejoin|Quorum' ./internal/fednet/

# test-codec runs the lossless compression stack: the codec unit tests
# and the compressed-vs-raw federation equivalence tests (race on — they
# drive concurrent socket rounds; -short keeps the quick-preset
# acceptance run out of the CI budget, `go test ./...` still covers it).
test-codec:
	$(GO) test ./internal/codec/
	$(GO) test -race -short -run 'Compressed' ./internal/fednet/

# test-resume is the crash-recovery gate: checkpoint format pins and
# fuzz-adjacent rejection tests in persist, the in-process kill/resume
# suite in fl, and the networked drill in fednet — a server killed at
# each interior round boundary (and once mid-round, after uploads but
# before aggregation) resumes on the same address against surviving
# resilient clients with bit-identical results. Race on — the drill
# spans two server lifetimes of concurrent sockets. -short keeps the
# full 3-seed × raw/codec × streamed/after-barrier FedGuard crash-point
# matrix out of the CI budget; `go test ./...` still covers it.
test-resume:
	$(GO) test ./internal/persist/
	$(GO) test -race -short -run 'Resume|Checkpoint' ./internal/fl/
	$(GO) test -race -short -run 'KillResume|CrashPoint|Resume' ./internal/fednet/

# test-cli is the command-line gate: fedsim's and fednode's flag names
# and defaults are pinned (they are bound from one shared table), and
# the server fednode builds from its flags ends on experiment.Run's
# weights over loopback in three cases, six federations: FedGuard and
# additive noise over the raw dialect, benign FedAvg compressed. Race
# on — the equivalence test drives sixteen concurrent sockets.
test-cli:
	$(GO) test -race ./cmd/fedsim/ ./cmd/fednode/

# trace-smoke is the end-to-end distributed-tracing gate: a 3-round
# 4-client fault-injected federation (one hard straggler) with per-node
# JSONL span logs, asserting fedtrace reconstructs every round as a
# single complete rooted span tree with drop reasons visible. Race on —
# the run drives concurrent traced sockets.
trace-smoke:
	$(GO) test -race -run 'TestTraceSmoke' ./cmd/fedtrace/
	$(GO) test -race -run 'Traced' ./internal/fednet/

# fuzz-smoke gives the wire-frame, codec and checkpoint decoders (the
# round file alone, and a directory with its blob), the skip-draw
# dataset walk, the server's update edge (arbitrary frames of both
# dialects into toUpdate) and every aggregation strategy (hostile cohorts
# of finite updates: an error or finite values, never a panic or a hang)
# a bounded randomized beating on every CI run;
# go test -fuzz takes over for longer campaigns.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadMessage -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 10s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzReadCheckpoint -fuzztime 10s ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpointDir -fuzztime 10s ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzGenerateSubset -fuzztime 10s ./internal/dataset/
	$(GO) test -run '^$$' -fuzz FuzzUpdateEdge -fuzztime 10s ./internal/fednet/
	$(GO) test -run '^$$' -fuzz FuzzAggregate -fuzztime 10s ./internal/aggregate/

clean:
	$(GO) clean ./...
	rm -rf results/
