# Local targets mirror .github/workflows/ci.yml exactly, so `make ci` is the
# same bar CI enforces. `make ci-sync-check` (also a CI step) diffs the
# package lists between this file and ci.yml so they cannot drift.
# The storage stages these harnesses cover (head/WAL/blocks/downsampling)
# are mapped in docs/ARCHITECTURE.md; benchmark baselines in docs/BENCHMARKS.md.

GO ?= go
RACE_PKGS := ./internal/tsdb/... ./internal/labels/... ./internal/api/... ./internal/lb/... ./internal/scrape/... ./internal/thanos/... ./internal/workpool/... ./internal/cluster/... ./internal/promql/... ./internal/promapi/... ./internal/querycache/... ./internal/remotewrite/... ./internal/telemetry/... ./internal/rules/... ./internal/serve/... ./cmd/ceems_api_server/

.PHONY: build test test-short race accounting wal-recovery querycache promql-equiv rules-equiv cluster-chaos remote-write telemetry blocks head-index fuzz-smoke bench bench-querycache bench-smoke bench-pairs benchdiff ci-sync-check config-check lint ci

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Inner-loop pass: -short skips the hour-long simulations in
# internal/experiments and trims the randomized harnesses' trial counts.
# Not part of `ci` — CI always runs the full suite.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Accounting harness (docs/ARCHITECTURE.md §11): the API server's restart,
# crash-at-any-byte, legacy-store and fault legs against the uninterrupted
# and fault-free runs, and RunPeriodic's failure logging, under race. The
# legs are deterministic, so one pass.
accounting:
	$(GO) test -race -run 'Accounting|Periodic' ./internal/api/ ./internal/experiments/

# The crash/corruption harness is randomized; run it twice, under race.
# Covers v1 replay (committed fixture, v1 legs of the crash matrix), the
# v1→v2 migration tests, the fixture of ref deletes and unbounded
# tombstones (record types 6 and 8), crashes inside a delete's tombstone
# record (type 9), one owner per WAL directory, and the graceful-stop
# leg (the Prometheus role stopped by internal/serve mid remote-write: every
# acked sample replays, no torn tail) too — they all match 'WAL'.
wal-recovery:
	$(GO) test -race -count=2 -run 'WAL|Checkpoint' ./internal/tsdb/ ./internal/relstore/ ./internal/serve/

# Splice-correctness property test and cache concurrency, twice, under race,
# with promapi: a reused range entry keeps its JSON rendering, so the render
# path (cold, hit and splice bodies against the encoding/json oracle) spans
# both packages.
querycache:
	$(GO) test -race -count=2 ./internal/querycache/ ./internal/promapi/

# PromQL evaluator equivalence (docs/ARCHITECTURE.md, "One evaluator"): the
# differential property test — random expressions over a random dataset,
# production evaluator against the per-step oracle, bit for bit, Range and
# Instant — and the same expressions through a hot/cold seam against the
# uncut head, at its large size with a fresh seed per pass (logged; replay
# with -equiv.seed), plus the fixed equivalence lists and the
# hash-collision tests, the same expressions over a 1-shard and a
# 16-shard head, and over every store read with its hints as sent — trimmed
# to the samples the steps look at — against the same store read untrimmed
# (TestHintTrimMatchesOracleRandom, docs/ARCHITECTURE.md §7, "What a read
# may drop"); two passes, under race. Both passes together run close to
# go test's 10-minute default, hence the explicit timeout.
promql-equiv:
	$(GO) test -race -count=2 -timeout 30m -run 'MatchesOracle|MatchesNaive|HashCollision' ./internal/promql/ -args -equiv.exprs=2000

# Rule group evaluation equivalence (docs/ARCHITECTURE.md, "One evaluation
# per group"): random rule groups and the CEEMS groups under series churn,
# the group plan against the per-rule, per-sample oracle — full head dump
# after every evaluation, 1 and 16 shards, batch and plain destination — at
# its large size with a fresh seed per pass (logged; replay with
# -equiv.seed); two passes, under race.
rules-equiv:
	$(GO) test -race -count=2 -run 'MatchesOracle' ./internal/rules/ -args -equiv.groups=100

# Cluster quorum/chaos/handoff harness: kill mid-scrape, partition,
# disk-full, WAL-backed rejoin — randomized, so two passes, under race.
# Set CHAOS_ARTIFACT_DIR to keep the per-node WAL dirs and replay-stats
# logs (CI uploads them on failure).
cluster-chaos:
	$(GO) test -race -count=2 -run 'Chaos|Quorum|Handoff|Tombstone|Scatter' ./internal/cluster/

# Remote-write ingest harness: framing torn/corruption byte sweeps,
# receiver backpressure and idempotent-retry tests, and the out-of-order
# window paths including the OOO WAL crash test — randomized, so two
# passes, under race.
remote-write:
	$(GO) test -race -count=2 -run 'RemoteWrite|Ingest|OOO' ./internal/remotewrite/ ./internal/promapi/ ./internal/tsdb/

# Self-telemetry suite: registry/trace unit tests plus the self-scrape
# e2e loop (a prometheus_sim-shaped harness scraping its own /metrics and
# range-querying the telemetry_ series back out) — twice, under race.
telemetry:
	$(GO) test -race -count=2 ./internal/telemetry/

# Block-store lifecycle harness (docs/ARCHITECTURE.md): block format
# round-trip/corruption tests, the kill-at-any-byte publication sweep (also
# cut in the middle of migrating an older build's store), compaction/
# downsample crash-window recovery, the downsampling equivalence property
# test (one block and several cut at random times), the block index
# against the brute-force scan (TestBlockPostingsMatchScan) and compaction
# and downsampling against the whole-block path they replaced, byte for
# byte (Test{Compact,Downsample}MatchesOracleRandom), the boundary probe —
# 24 h of 15 s scrapes under 30 min maintenance, aggregate answers against
# raw ones (TestDownsampleProbeMatchesRaw) — and the migration of a store
# an older build wrote (TestDownsampleMigratesOldStore), and the Prometheus
# role's maintenance pass over 12 simulated hours, its aggregate answers
# against raw ones (TestPrometheusBlockLifecycle), and the delete oracle
# (docs/ARCHITECTURE.md, "One delete"): random appends, deletes, ships,
# compactions, downsampling and restarts against a model of every sample
# minus what each delete took, at 1 and 16 shards, through the hot/cold
# seam and a Paranoid range cache, and its ring leg (TestDeleteOracle,
# TestDeleteOracleRing), with the tombstone log's bound
# (TestTombstoneLog*), and the Querier's fence (docs/ARCHITECTURE.md, "One
# reader"): random appends, ships, truncations, deletes, compactions,
# downsampling and restarts, every read against the same read with every
# block claimed whole, at 1 and 16 shards, and its two corners and its race
# with truncation (TestQuerierFence*) — randomized, so two passes, under
# race. Set
# BLOCKS_ARTIFACT_DIR to keep the store directories of failing crash
# states (CI uploads them on failure).
blocks:
	$(GO) test -race -count=2 -run 'Block|Compact|Downsample|DeleteOracle|TombstoneLog|QuerierFence' ./internal/tsdb/ ./internal/thanos/ ./internal/cluster/

# Head index harness (docs/ARCHITECTURE.md, "Head index"): the postings
# property test — random matchers against a brute-force oracle, interleaved
# with creates, deletes and truncates at 1 and 16 shards while another
# goroutine appends — plus the select allocation bound, the same property
# for the block index, which resolves matchers through the same code, and
# the read side (docs/ARCHITECTURE.md, "Sized fan-out"): which selects wake
# a second core at GOMAXPROCS 4, fanned-out, inline and 1-shard reads
# of random matchers, windows and sample limits agreeing to the bit, and
# reads that start at a chunk's seek marks against a full decode of every
# chunk (TestHeadSelectSeekMatchesFullDecode), and the head's sorted label
# lists against its live series through churn, WAL replay and concurrent
# reads (TestLabelValues*, and TestPostingsProperty's label checks), and
# truncation dropping a series that went silent in its open chunk, across a
# WAL reopen (TestHeadTruncateDropsSilentOpenChunk); and the label lists
# the head, the block store, the Querier and the ring keep merged against a
# brute-force scan through creates, deletes, truncates, WAL reopens, ships,
# compactions and downsampling with a concurrent appender and reader, no
# kept store list outliving its block set, and one kept list under
# concurrent additions, removals and reads (TestLabelListsOracle,
# TestRingLabelListsOracle, TestStoreForgetsListsOfRetiredBlockSets,
# TestKeptListConcurrentReadsAndChanges) and
# the older store, Querier and ring label checks; randomized, so two
# passes, under race.
head-index:
	$(GO) test -race -count=2 -run 'Posting|HeadSelect|HeadTruncate|LabelValues|KeptList' ./internal/tsdb/
	$(GO) test -race -count=2 -run 'StoreLabelValuesForgetTombstonedSeries|QuerierLabelStore|QuorumLabelEndpoints|LabelListsOracle|ForgetsListsOfRetiredBlockSets' ./internal/thanos/ ./internal/cluster/

# Ten seconds of coverage-guided fuzzing each over the chunk decoder
# (arbitrary bytes must end in an error or the declared sample count, never
# a panic), over iterators resumed from seek marks (FuzzChunkResume: the
# bitwise suffix of a full decode, the same error), over the fused read loop
# every storage read decodes through (FuzzChunkWindow: any chunk bytes or
# samples, window, step filter and resume mark give the Next/At loop's
# samples bit for bit and its error), over the chunk/WAL bit
# writer (byte-identical to the bit-at-a-time oracle it replaced, for any
# call sequence into any destination), over the query API's JSON string
# escaper (byte-identical to encoding/json on any input), over the
# exposition tokenizer (same families or same failure as the oracle parser
# it replaced, allocation linear in the input), over the block index decoder
# (a CRC-valid index of any content ends in an error or a value that
# re-encodes to the same bytes, allocation linear in the input), over a
# whole block directory (FuzzOpenBlockDir: any meta.json, index and chunks
# bytes open and read every series to an error or samples, never a panic,
# allocation linear in the bytes; minimising a new input of its whole-block
# seeds is capped at 1 s, or it takes the ten seconds), over the
# query client's answer decoder (FuzzInstantResponse: any body ends in an
# error or a vector or scalar, never a panic, and no more than the cap is
# read from an endless answer), over the PromQL parser (any
# text ends in an error or an expression whose String() parses again, never
# a panic), over the CRW1 frame decoder (FuzzDecoder: any stream ends in
# io.EOF or an error, never a panic, and no frame held or inflated past
# MaxFrame+1 bytes; every accepted frame's payload walked by the tokenizer,
# as the receiver reads it, fails like Parse or gives each series the same
# samples) and over WAL replay (FuzzWALRecord: one record of any type under
# a valid CRC replays through Open to an error or a head, never a panic,
# allocating in proportion to the bytes it holds) and over the step filter
# (FuzzStepFilter: any stream, step grid and cut of the stream into runs read
# through Until keeps exactly what the brute-force step rule keeps) and over
# the sample-value renderer (FuzzAppendFloat: any float64 bits render as
# strconv.AppendFloat(dst, v, 'g', -1, 64) renders them, byte for byte) and
# over relstore's recovery (FuzzRelstoreOpen: any snapshot and WAL bytes open
# to an error or a store, never a panic, allocating in proportion to the
# input, and a store that opens reopens to the same rows).
# tools/ci_sync_check.sh pins this list to ci.yml and to every Fuzz function
# in the tree.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzChunkIterator -fuzztime 10s ./internal/tsdb/chunkenc/
	$(GO) test -run '^$$' -fuzz FuzzBitWriter -fuzztime 10s ./internal/tsdb/chunkenc/
	$(GO) test -run '^$$' -fuzz FuzzChunkResume -fuzztime 10s ./internal/tsdb/chunkenc/
	$(GO) test -run '^$$' -fuzz FuzzChunkWindow -fuzztime 10s ./internal/tsdb/chunkenc/
	$(GO) test -run '^$$' -fuzz FuzzDecodeIndex -fuzztime 10s ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz FuzzOpenBlockDir -fuzztime 10s -fuzzminimizetime 1s ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime 10s ./internal/tsdb/
	$(GO) test -run '^$$' -fuzz FuzzAppendJSONString -fuzztime 10s ./internal/promapi/
	$(GO) test -run '^$$' -fuzz FuzzInstantResponse -fuzztime 10s ./internal/promapi/
	$(GO) test -run '^$$' -fuzz FuzzParseExpr -fuzztime 10s ./internal/promql/
	$(GO) test -run '^$$' -fuzz FuzzTokenizer -fuzztime 10s ./internal/expofmt/
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime 10s ./internal/remotewrite/
	$(GO) test -run '^$$' -fuzz FuzzStepFilter -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzAppendFloat -fuzztime 10s ./internal/model/
	$(GO) test -run '^$$' -fuzz FuzzRelstoreOpen -fuzztime 10s ./internal/relstore/
	$(GO) test -run '^$$' -fuzz FuzzYamlite -fuzztime 10s ./internal/config/

# Real measurements for BENCH_querycache.json (slow).
bench-querycache:
	$(GO) test -run '^$$' -bench 'QueryCache|RangeRefresh' -benchmem -benchtime=2s ./internal/querycache/ ./internal/promapi/

# Full benchmark run (real measurements; slow).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One-iteration smoke pass so the bench suite can never silently rot.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# End-to-end benchmark, the working tree against BASE: PAIRS alternating
# pairs of `go run ./bench -workload all`, one seed per pair, then
# `bench -compare` of the two sides (tools/benchpairs.sh). Slow; not in `ci`.
BASE ?= HEAD
PAIRS ?= 10
bench-pairs:
	./tools/benchpairs.sh $(BASE) $(PAIRS)

# Benchmark-regression gate: re-runs the suites 5x and compares medians
# against the committed baselines (BENCH_*.json) with the
# confidence-interval rule (median ± 3×MAD overlap; flat 25% fallback for
# legacy entries). Slow; runs nightly in CI (.github/workflows/bench.yml)
# or on demand.
benchdiff:
	$(GO) run ./tools/benchdiff -count 5

# Guard against Makefile <-> ci.yml drift (race package lists, .PHONY).
ci-sync-check:
	./tools/ci_sync_check.sh

# One configuration surface (docs/ARCHITECTURE.md, "Configuration"): every
# command's flag names and defaults are the pinned ones, the README flag
# tables are what the registrar generates (UPDATE_README=1 rewrites them),
# examples/ceems.yaml loads and sets every key, and every key
# internal/config declares is read by some non-test code outside it.
config-check:
	$(GO) test -count=1 -run 'FlagsPinned|READMEFlagTables|ExampleSetsEveryKey|EverySettingIsRead|EveryLeafDeclaresItself' ./internal/config/

lint:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

ci: build lint ci-sync-check config-check test race accounting wal-recovery querycache promql-equiv rules-equiv cluster-chaos remote-write telemetry blocks head-index fuzz-smoke bench-smoke
	@echo "ci: all green"
