# Developer entry points. CI runs the same commands; see
# .github/workflows/ci.yml.

.PHONY: all build test test-oracle race lint inline-check bench prof-run prof-alloc fmt golden loc loc-check docs docs-check

all: build lint test

build:
	go build ./...

test:
	go test ./...

# test-oracle runs the suites that pin a fast path to its reference
# under the race detector: the sim package's own tests (the event
# engine's ordering contract, Group's selection against a scan on a
# recorded workload trace, and the calendar invariants), the top-level
# golden identity tests (timing-only fast path vs functional reference
# system, byte for byte, and a shared served result that equals a fresh
# run and is never written), the wire tier's multi-process equivalence
# harness (routed fleet vs in-process Server.Submit, byte for byte, plus
# drain-under-traffic and fault-replay determinism), the Reader's result
# table (TestReaderResultTableIsBounded, TestRoutedResultsSharedNeverWritten),
# Submit's lent response (TestSubmitLendsResponsesUnderCoalesce) and a
# target connection's two writers, whose bytes never interleave
# (TestInlineAndWriterNeverInterleave).
test-oracle:
	go test -race ./internal/sim/...
	go test -race -run 'FastVsReference|ToReference|SharedResultNeverWritten' .
	go test -race ./internal/wire ./internal/router ./internal/wiretest
	go test -race -run 'SubmitLendsResponsesUnderCoalesce' ./internal/serve
	go test -race -run 'InlineAndWriterNeverInterleave' ./internal/target

race:
	go test -race ./...

# golden rewrites every stored value the repo's own tests compare
# against: what `experiments -csv all` prints at scales 1 and 2
# (cmd/experiments/testdata), the availability sweep
# (testdata/availability.csv) and the fault log
# (internal/faultinject/testdata/faults.golden.jsonl). Run it only for a
# deliberate change to the model, and commit the diff it leaves with a
# before/after of each file. cmd/conduit-bench/testdata/sim_golden.json
# is left out on purpose: it belongs to the benchmark, and only a change
# to the benchmark regenerates it (`go run ./cmd/conduit-bench
# -update-golden cmd/conduit-bench/testdata/sim_golden.json`).
golden:
	go test -count=1 -run '^TestCSVAllGolden$$' ./cmd/experiments -update-golden
	go test -count=1 -run '^TestAvailabilityDeterministic$$' . -update-golden
	go test -count=1 -run '^TestFaultLogGolden$$' ./internal/faultinject -update-golden

# lint runs the repo's own analyzer suite over every package, as CI
# does: it fails on any diagnostic not covered by the committed
# allowlist in internal/lint/allow/conduitlint.allow (exit 1) and on a
# pattern that matches no package (exit 2).
lint:
	go run ./cmd/conduitlint ./...

# inline-check fails when a function listed in internal/lint/inline.list
# stops inlining: a per-instruction call the compiler used to fold away
# costs a call again, and no test sees it. The list's packages are built
# with -gcflags=-m, and each "can inline" line becomes "<dir> <function>".
INLINE_LIST := internal/lint/inline.list
inline-check:
	@have=$$(go build -gcflags=-m $$(awk '!/^#/ && NF { print "./" $$1 }' $(INLINE_LIST) | sort -u) 2>&1 | \
		sed -n 's|^\(.*\)/[^/]*\.go:[0-9]*:[0-9]*: can inline \(.*\)$$|\1 \2|p'); \
	status=0; \
	while read -r want; do \
		case "$$want" in ''|'#'*) continue ;; esac; \
		printf '%s\n' "$$have" | grep -qxF "$$want" || { echo "no longer inlined: $$want"; status=1; }; \
	done < $(INLINE_LIST); \
	[ $$status = 0 ] && echo "every function in $(INLINE_LIST) inlines"; exit $$status

fmt:
	gofmt -w .

# bench runs the benchmark BENCHMARK.json declares (four workloads,
# seven end-to-end metrics; cmd/conduit-bench/README.md).
bench:
	bash cmd/conduit-bench/run.sh

# prof-run profiles BenchmarkDeviceRunMix — the in-tree mirror of the
# serve_heavy request space (AES, LLaMA2, LLM training at scale 2 under
# Conduit, DM- and BW-Offloading through Deployment.Run) — and prints the
# cumulative top of the CPU profile: where a device run's host time goes.
# `make prof-run BENCH=ReferenceRunMix` profiles the same mix on the
# functional data plane instead (where internal/vecmath is most of a run);
# `make prof-run BENCH=RoutedLightMix` profiles the wire tier: the
# fleet_light mix through Router.Do to two in-process loopback targets,
# beside BenchmarkServeLightMix, the same requests through Server.Do;
# `make prof-run BENCH=SweepGridCold` profiles the sweep_grid mirror: a
# fresh one-worker harness compiling, deploying and running all six
# scale-1 workloads under every policy. PKG (default the root package)
# profiles a benchmark of another package: `make prof-run
# PKG=./internal/nvme BENCH=ImageRoundTrip` times the firmware image round
# trip, `make prof-run PKG=./internal/compiler BENCH=CompileSuite` the
# compile of the six workloads. A pointer to where to look, not a
# measurement; claims go through `make bench` pairs. The binary and the
# profile stay outside the checkout.
#
# prof-alloc is the same run with a heap profile instead, ranked by bytes
# allocated: `make prof-alloc BENCH=ServeHeavyMix` shows what a served
# serve_heavy request allocates, and from where, and `make prof-alloc
# BENCH=SweepGridCold` what a cold grid does. The stacks through
# Server.RegisterWorkload, the serving benchmarks' set-up before the timer
# starts, are left out.
PROF_DIR ?= $(or $(TMPDIR),/tmp)/conduit-prof
BENCH ?= DeviceRunMix
PKG ?= .
prof-run:
	@mkdir -p $(PROF_DIR)
	go test -run '^$$' -bench '$(BENCH)$$' -benchtime 200x -o $(PROF_DIR)/conduit.test -cpuprofile $(PROF_DIR)/cpu.prof $(PKG)
	go tool pprof -top -cum -nodecount 45 $(PROF_DIR)/conduit.test $(PROF_DIR)/cpu.prof

prof-alloc:
	@mkdir -p $(PROF_DIR)
	go test -run '^$$' -bench '$(BENCH)$$' -benchtime 200x -o $(PROF_DIR)/conduit.test -memprofile $(PROF_DIR)/mem.prof $(PKG)
	go tool pprof -sample_index=alloc_space -ignore RegisterWorkload -top -cum -nodecount 45 $(PROF_DIR)/conduit.test $(PROF_DIR)/mem.prof

# loc prints non-test Go lines per top-level package — the definition
# of the line count ROADMAP tracks and CHANGES.md reports per PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs wc -l | awk '$$2 != "total" { n = split($$2, p, "/"); k = n > 3 ? p[2] "/" p[3] : "."; s[k] += $$1; t += $$1 } END { for (k in s) printf "%7d %s\n", s[k], k; printf "%7d total\n", t }' | sort -k2

# loc-check fails when loc's total exceeds LOC_CEILING, the count the last
# PR that touched it left behind: net line count is enforced, not just
# reported. A PR that must grow the tree raises the ceiling in the same
# commit and says why in CHANGES.md; one that shrinks it lowers it.
LOC_CEILING := 24429
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "make loc total $$total exceeds the committed ceiling $(LOC_CEILING)"; exit 1; \
	fi; \
	echo "make loc total $$total <= ceiling $(LOC_CEILING)"

# docs prints the lines of each document TestDocsCiteWhatExists checks
# (docs_test.go's citedDocs, read from there so the two lists cannot
# drift) and their total.
DOCS := $(shell sed -n 's/^var citedDocs = \[\]string{\(.*\)}$$/\1/p' docs_test.go | tr -d '",')
docs:
	@wc -l $(DOCS)

# docs-check fails when docs' total exceeds DOCS_CEILING, which works like
# LOC_CEILING: the docs say what runs today, and history lives in
# CHANGES.md, so a PR that grows them raises the ceiling and says why.
DOCS_CEILING := 1509
docs-check:
	@test -n "$(DOCS)" || { echo "no citedDocs in docs_test.go"; exit 2; }; \
	total=$$(cat $(DOCS) | wc -l); \
	if [ "$$total" -gt $(DOCS_CEILING) ]; then \
		echo "make docs total $$total exceeds the committed ceiling $(DOCS_CEILING)"; exit 1; \
	fi; \
	echo "make docs total $$total <= ceiling $(DOCS_CEILING)"
