# Developer entry points. Everything is pure stdlib Go; no tools beyond
# the Go toolchain are required.

GO ?= go

.PHONY: all build test race crash bench bench-server experiments examples fuzz serve clean cover fmt-check doc-check doc-links bench-check

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test: fmt-check doc-check doc-links bench-check
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/core/ ./internal/compaction/ ./internal/memtable/ ./internal/server/ ./internal/client/ ./internal/shard/ ./internal/tuner/
	$(GO) test -race -run '^(TestAtomicity|TestDesignChoices)' .
	$(MAKE) crash
	$(MAKE) examples

# gofmt is the only accepted formatting; -l lists offenders and the grep
# turns any output into a failure.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every package must carry a package-level doc comment: at least one
# non-test .go file per package whose first line is a comment (godoc
# renders the comment block directly above the package clause).
doc-check:
	@fail=0; for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		ok=0; for f in $$d/*.go; do \
			case $$f in *_test.go) continue;; esac; \
			head -1 $$f | grep -q '^//' && ok=1 && break; \
		done; \
		if [ $$ok -eq 0 ]; then echo "missing package doc comment: $$d"; fail=1; fi; \
	done; exit $$fail

# Documentation cross-checks: every .md cross-reference must resolve to a
# real file, every flag OPERATIONS.md names must exist in the shipped
# binaries' -help output (the binaries are built and their help captured,
# so a renamed flag fails the build), PROTOCOL.md's opcode table must
# agree with the server's own (doccheck imports it) on every number,
# name, class and reserved mark, in both directions, and DESIGN.md's
# experiment index and EXPERIMENTS.md's sections and summary must list
# exactly the experiments internal/bench registers.
doc-links:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	for c in lsmserver lsmctl lsmtune; do \
		$(GO) build -o $$tmp/$$c ./cmd/$$c || exit 1; \
		$$tmp/$$c -h 2>$$tmp/$$c.help || true; \
	done; \
	$(GO) run ./cmd/doccheck -root . -ops OPERATIONS.md -protocol PROTOCOL.md \
		$$tmp/lsmserver.help $$tmp/lsmctl.help $$tmp/lsmtune.help \
		&& echo "doc-links: OK"

# The repo's benchmark (benchmark/, see BENCHMARK.json) is a nested
# module, so `go build ./... && go test ./...` does not run it (the root
# TestBenchmarkModuleBuilds vets and builds it); it imports lsm.go and
# internal/ symbols. Its smoke test runs every workload small.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Per-package statement coverage, with floors on the observability,
# shard-routing, replication, and self-tuning packages: the instruments
# everything else leans on, the layer that splits the keyspace, the
# subsystem that ships data off the box, and the controller that moves
# knobs on a live tree must stay tested.
COVER_FLOORS = iostat:90 shard:85 replica:85 tuner:85
cover:
	$(GO) test -cover ./...
	@for pf in $(COVER_FLOORS); do \
		pkg=internal/$${pf%%:*}; floor=$${pf##*:}; \
		pct=$$($(GO) test -cover ./$$pkg/ | \
			sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk "BEGIN{exit !($$pct >= $$floor)}" || \
			{ echo "$$pkg coverage below floor"; exit 1; }; \
	done

race:
	$(GO) test -race ./...

# Crash-recovery property tests at four times their default depth: each
# seeded iteration of the crash oracle (internal/crashtest) writes a
# workload, severs the filesystem at a random operation, reopens on the
# surviving (optionally torn) image, and checks the durability invariant
# against the issued history — for the engine, the shards, the server,
# and every sampled design of the root package's lattice.
crash:
	$(GO) test ./internal/core/ -run 'TestCrash' -count=1 -crash.iters=100
	$(GO) test ./internal/shard/ -run 'Crash' -count=1 -crash.iters=100
	$(GO) test ./internal/server/ -run 'Crash' -count=1 -crash.iters=100
	$(GO) test . -run 'TestDesignChoices' -count=1 -crash.iters=100

# `make bench E=E14` runs one experiment of cmd/lsmbench and prints its
# claim-vs-measured table (E14 compaction-pool stalls, E15 shard sweep,
# E16 checkpoint and follower lag, E17 online tuning, E18 read-path
# allocations and MULTIGET, E19 YCSB mixes and TTL reclaim; DESIGN.md
# indexes all nineteen, and internal/bench is the only place one is
# defined). Without E it runs every testing.B in the module — layer
# microbenchmarks and BenchmarkDBGet, no experiment.
bench:
ifdef E
	$(GO) run ./cmd/lsmbench -e $(E)
else
	$(GO) test -bench=. -benchmem ./...
endif

# Serving-layer microbenchmarks: group commit, coalesced vs per-op-sync
# committer over the full network stack (DESIGN.md "Group commit" quotes
# a run; put-sync in the committed BENCH_*.json is the same path end to
# end), and one GET round trip over loopback with its allocations.
bench-server:
	$(GO) test ./internal/server/ -run xxx -bench 'BenchmarkGroupCommit|BenchmarkWireGet' -benchtime 1s -benchmem

# The claim-shaped experiment tables (DESIGN.md index, EXPERIMENTS.md record).
experiments:
	$(GO) run ./cmd/lsmbench

# Each example is an end-to-end run on the real filesystem (≈ 1 s each);
# the timeout turns one that stops terminating into a failure of `make
# test` instead of a hang.
examples:
	timeout 60 $(GO) run ./examples/quickstart
	timeout 60 $(GO) run ./examples/readopt
	timeout 60 $(GO) run ./examples/tuning
	timeout 60 $(GO) run ./examples/kvsep

fuzz:
	$(GO) test ./internal/sstable/ -fuzz FuzzDecodeBlock -fuzztime 30s
	$(GO) test ./internal/sstable/ -fuzz FuzzOpenReader -fuzztime 30s
	$(GO) test ./internal/wal/ -fuzz FuzzWALReplay -fuzztime 30s
	$(GO) test ./internal/shard/ -fuzz FuzzShardRouting -fuzztime 30s
	$(GO) test ./internal/server/ -fuzz FuzzDecodeRequest -fuzztime 30s
	$(GO) test ./internal/server/ -fuzz FuzzDecodeResponse -fuzztime 30s
	$(GO) test ./internal/server/ -fuzz FuzzMultiGetRequest -fuzztime 30s
	$(GO) test ./internal/server/ -fuzz FuzzIncrCasRequest -fuzztime 30s
	$(GO) test ./internal/replica/ -fuzz FuzzReplFrame -fuzztime 30s
	$(GO) test . -run FuzzDesignChoices -fuzz FuzzDesignChoices -fuzztime 30s

# Run a server on ./serve-db with metrics, for poking at with lsmctl:
#   make serve &
#   go run ./cmd/lsmctl -addr 127.0.0.1:4440 put hello world
serve:
	$(GO) run ./cmd/lsmserver -db ./serve-db -addr 127.0.0.1:4440 -metrics 127.0.0.1:4441 -v

clean:
	rm -f lsmbench
	rm -rf serve-db
