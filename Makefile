GO ?= go
FUZZTIME ?= 60s
FUZZ_PKGS ?= . ./internal/seqenc ./internal/seqdb ./internal/mapreduce ./internal/rewrite ./internal/miner ./internal/gsm ./internal/pindex ./server

.PHONY: build test vet lint lashvet tools-test bench-smoke fuzz race chaos loc clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test also vets and smoke-tests the bench/ module (~14 s): it compiles
# against lash/internal/... but is its own module, so root build/vet/lint
# never reach it and an internal-API change could silently break it.
test: vet
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# race is the EXACT gate the CI race job runs. The second pass repeats
# ./server: its lifecycle tests race real goroutines against HTTP requests,
# and PRs 13 and 14 each found a data race there that a single run missed.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./server

# chaos runs the fault-injection differential tests under the race
# detector: with faults armed and retries enabled, mining output must be
# byte-identical to the fault-free run (TestChaosDifferential). It also runs
# TestChaosDriftLineage, a zipf + topical resume lineage held to the drift
# bound at every resume: 20 cycles from seed 1 in plain `go test`, 200 from
# LASH_CHAOS_SEED when that is set; and TestDeltaStateAudit (internal/core),
# which recounts a resumed PSM lineage's state by brute force at every
# cycle: 40 cycles from seed 13 in plain `go test`, 100 from LASH_CHAOS_SEED.
# Set LASH_CHAOS_SEED to shift the deterministic seed window (CI randomizes
# it so every run exercises a fresh fault schedule and fresh lineages; the
# seed is echoed for reproduction).
chaos:
	$(GO) test -race -count=1 -run '^TestChaos' -v .
	$(GO) test -race -count=1 -run '^TestDeltaStateAudit$$' -v ./internal/core

# lashvet runs the project-invariant analyzer suite (ctxfirst,
# atomicfield, obshandle, emitgo, errjob, faultpoint, apierr, and the
# whole-program testonly: every declaration of every package of the root
# module, exported or not, is referenced by production code of the root
# module or of bench/, or by an Example with a checked "// Output:", not
# only by tests) over the root module. The analyzers live in the tools/ module so the root
# go.mod stays dependency-free. See "Static analysis" in README.md.
lashvet:
	$(GO) -C tools run ./cmd/lashvet -dir .. ./...

# tools-test runs the analyzer suite's own tests (analysistest-style
# want-diagnostic cases plus the multichecker smoke test).
tools-test:
	$(GO) -C tools test ./...

# lint is the EXACT gate the CI lint job runs (one step per line, same
# order): the lashvet invariant suite, formatting drift, go vet, then
# staticcheck when installed (CI installs a pinned version; locally it is
# optional). Metric naming rules need no step: obs.Registry panics on a
# non-conforming registration. Keep this target and
# .github/workflows/ci.yml in sync.
lint: lashvet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi
	@out="$$(cd tools && gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l found unformatted files in tools/:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) -C tools vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# fuzz runs every fuzz target in $(FUZZ_PKGS) for $(FUZZTIME) each (the CI
# nightly job calls this with the default 60s).
fuzz:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz'); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME); \
		done; \
	done

# bench-smoke is the CI pass: the root package's benchmarks —
# BenchmarkDeltaMine, BenchmarkDeltaSteady (the steady-state zipf refresh
# of a live corpus), the handler-level BenchmarkServePatterns and the
# BenchmarkPindex* queries — and the server's BenchmarkMineReply (the wire
# writer on a cold-text-sized mine reply) must still run (1 iteration), so
# they cannot bit-rot. Numbers worth quoting come from bench/ (see
# bench/README.md); allocations are held by TestAllocBudget and the paper's
# claims by TestPaperClaims (internal/experiments).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ . ./server

# loc prints the per-package line table (wc -l) that simplicity PRs quote in
# CHANGES.md, as Markdown: non-test Go, _test.go, and files under testdata/,
# for the root module, bench/ and tools/ separately.
loc:
	@for mod in . bench tools; do \
		echo "module $$mod"; echo; echo "| package | non-test | test | testdata |"; echo "|---|---:|---:|---:|"; \
		(cd $$mod && find . \( -path ./bench -o -path ./tools -o -path './.*' \) -prune -o \
			-type f \( -name '*.go' -o -path '*/testdata/*' \) -print0 | xargs -0 wc -l | awk ' \
			$$2 != "total" { f = $$2; sub(/^\.\//, "", f); \
				if (f ~ /(^|\/)testdata\//) { k = 3; sub(/\/?testdata\/.*/, "", f) } \
				else { k = f ~ /_test\.go$$/ ? 2 : 1; sub(/\/?[^\/]*$$/, "", f) } \
				if (f == "") f = "."; n[f, k] += $$1; pkgs[f]; total[k] += $$1 } \
			END { for (p in pkgs) printf "| `%s` | %d | %d | %d |\n", p, n[p, 1], n[p, 2], n[p, 3] | "sort"; close("sort"); \
				printf "| **total** | %d | %d | %d |\n\n", total[1], total[2], total[3] }'); \
	done

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
