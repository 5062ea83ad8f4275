GO ?= go

.PHONY: build test race vet verify bench bench-smoke bench-json bench-json-smoke fault-smoke workload-smoke verify-smp replay-smoke crash-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench-smoke proves the pipelined-RFS benchmark still runs (one iteration,
# no timing claims) so a protocol change cannot silently rot it, and pins
# the allocation counts of the hot paths: the SMP scheduler's per-pass
# budget (TestSMPStepAllocBudget), the traced scheduling pass
# (TestKernelStepTracedAllocFree), the text-page TLB refill
# (TestPaddedFrameReuse), a blockfs path step through a warm directory
# (TestDirLookupAllocFree) and a one-block journal transaction
# (TestTxAllocFree) must not allocate in steady state.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRFSPipelined' -benchtime 1x .
	$(GO) test -count=1 -run 'TestSMPStepAllocBudget|TestKernelStepTracedAllocFree' .
	$(GO) test -count=1 -run 'TestPaddedFrameReuse' ./internal/mem/
	$(GO) test -count=1 -run 'TestDirLookupAllocFree|TestTxAllocFree' ./internal/blockfs/

# bench-json records the key memory-pipeline and /proc benchmarks as JSON:
# one run under the NoTLB reference interpreter labeled "before", one with
# the translation fast path labeled "after", merged into BENCH_PR3.json.
bench-json:
	REPRO_NOTLB=1 $(GO) run ./cmd/benchjson -label before -o BENCH_PR3.json
	$(GO) run ./cmd/benchjson -label after -o BENCH_PR3.json

# bench-json-smoke proves the benchjson harness still runs and parses (one
# iteration per benchmark, results to stdout only).
bench-json-smoke:
	$(GO) run ./cmd/benchjson -benchtime 1x -o ''

# fault-smoke is the short fault-injection matrix: every site armed through
# /procx/faults, errnos checked, a seeded storm with the kernel-wide
# invariant checker after every injected fault — all under the race detector.
fault-smoke:
	$(GO) test -race -short -count=1 -run 'TestFaultMatrix|TestFaultStorm|TestFaultPlanDeterminism' .

# workload-smoke runs every macro scenario at smoke size plus the seeded
# determinism replay: same seed, bit-identical trace and process table.
workload-smoke:
	$(GO) test -count=1 -run 'TestWorkload' ./internal/workload/

# verify-smp exercises the SMP scheduler under the race detector: the
# shootdown-barrier mechanics, the fork/wait/signal storm and brk-shootdown
# programs at NCPU=4, the one-process trace that must match NCPU=1 byte for
# byte at NCPU=2, every workload scenario at NCPU=4 with the worker
# goroutine-leak check, host-side /proc controllers racing the scheduler,
# and the mutex-contention profile smoke (the global lock's share of
# sampled wait time stays under budget). The kernel and SMP suites then
# run again under -tags lockdebug, which panics on any out-of-order lock
# acquisition. GOMAXPROCS is forced up so worker goroutines genuinely
# interleave even on small hosts.
verify-smp:
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestShootdownBarrier|TestDeterministicModeHasNoSMP' ./internal/kernel/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSMP|TestOneProcessSameStreamAnyNCPU' .
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestWorkloadSMPSmoke' ./internal/workload/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestConcurrentControllers' ./internal/procfs/
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestSMPMutexContentionSmoke' .
	GOMAXPROCS=4 $(GO) test -tags lockdebug -count=1 ./internal/kernel/
	GOMAXPROCS=4 $(GO) test -tags lockdebug -count=1 -run 'TestSMP|TestOneProcessSameStreamAnyNCPU|TestConcurrentControllers' . ./internal/procfs/

# replay-smoke is the record/replay gate: the fault-storm soak records,
# replays bit-identically with per-event divergence checking, a signal
# pending at a checkpoint survives the restore, and the dbg
# time-travel REPL reverse-continues to the injected fault and reverse-steps
# through its neighborhood. REPRO_CKPT sets the checkpoint interval in
# scheduler passes (smaller = cheaper reverse motion, more snapshot memory).
replay-smoke:
	$(GO) test -count=1 -run 'TestRecordReplayBitIdentical|TestReplaySmoke' ./internal/replay/
	$(GO) test -count=1 -run 'TestRestoreKeepsPendingSignal' .
	$(GO) run ./cmd/dbg -record .replay-smoke.rec
	printf 'i\nb fault\nc\nrc\nrs\nrs\nev 5\nps\nq\n' | REPRO_CKPT=16 $(GO) run ./cmd/dbg -replay .replay-smoke.rec
	rm -f .replay-smoke.rec

# crash-smoke is the crash-consistency gate: the every-ordinal crash storm
# and the EIO matrix under the race detector (-short trims the storm to one
# seed), then one real-binary pass — format a file-backed image, kill it at
# a seeded write ordinal, and prove fsck mounts it, replays the journal and
# finds a clean image. FuzzMountWalk then mutates images for 10 seconds:
# mount, a walk of the whole tree and fsck must never panic or leave the
# device.
crash-smoke:
	$(GO) test -race -short -count=1 -run 'TestCrashStorm|TestCrashDuringCheckpoint|TestEIO' ./internal/blockfs/
	$(GO) run ./cmd/bfs -img .crash-smoke.img mkfs -blocks 1024
	$(GO) run ./cmd/bfs -img .crash-smoke.img crash -seed 7 -ops 40
	$(GO) run ./cmd/bfs -img .crash-smoke.img fsck
	rm -f .crash-smoke.img
	$(GO) test -run '^$$' -fuzz FuzzMountWalk -fuzztime 10s ./internal/blockfs/

# verify runs the tier-1 gate (build + test) plus the race detector, vet,
# the fault-matrix smoke, the workload smoke, the SMP race suite, the
# record/replay smoke, the crash-consistency smoke, and the benchmark smoke
# runs.
verify: build test race vet fault-smoke workload-smoke verify-smp replay-smoke crash-smoke bench-smoke bench-json-smoke

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
