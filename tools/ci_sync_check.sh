#!/bin/sh
# ci_sync_check.sh — fail when the Makefile and .github/workflows/ci.yml
# drift apart. Run from the repo root (make ci-sync-check, or the CI lint
# job). Five invariants:
#
#   1. The race-detect package list is identical in both files (order
#      ignored). This is the list that silently rotted once already —
#      promql/promapi were raced in CI but not by `make race`.
#   2. Every Makefile target is declared in .PHONY, so a stray file named
#      like a target (e.g. `bench-smoke`) can never shadow it.
#   3. Every `go test -race -<flag> ...` harness line (accounting,
#      wal-recovery, querycache, cluster-chaos, ...) is byte-identical
#      between the two files after normalizing $(GO) to go — the -run
#      pattern and package list of each harness job are pinned, so neither
#      side can narrow a harness without the other noticing.
#   4. The `make config-check` command (flag pin tables, README flag tables,
#      examples/ceems.yaml, no setting read by nothing) is the lint job's
#      step, byte for byte.
#   5. The `go test -run '^$' -fuzz ...` lines of fuzz-smoke are the same
#      set in both files after normalizing $(GO) to go and the Makefile's
#      '^$$' to '^$', and every `func Fuzz*` in the tree is fuzzed by one of
#      them, in its own package — a new fuzz target cannot be left out.
set -eu

cd "$(dirname "$0")/.."
fail=0

norm() { tr ' ' '\n' | sed '/^$/d' | sort; }

mk_pkgs=$(sed -n 's/^RACE_PKGS := //p' Makefile | norm)
# Only the bare race job line (first argument is a package path); the
# wal-recovery/querycache jobs also pass -race but with extra flags.
ci_pkgs=$(sed -n 's/^ *run: go test -race \(\.\/.*\)$/\1/p' .github/workflows/ci.yml | norm)

if [ -z "$mk_pkgs" ]; then
    echo "ci-sync-check: could not extract RACE_PKGS from Makefile" >&2
    fail=1
fi
if [ -z "$ci_pkgs" ]; then
    echo "ci-sync-check: could not extract the race package list from ci.yml" >&2
    fail=1
fi
if [ "$mk_pkgs" != "$ci_pkgs" ]; then
    echo "ci-sync-check: race package lists differ between Makefile and ci.yml:" >&2
    echo "--- Makefile RACE_PKGS" >&2
    echo "$mk_pkgs" >&2
    echo "--- ci.yml race job" >&2
    echo "$ci_pkgs" >&2
    fail=1
fi

# Harness lines: -race and a flag, with a pinned -run pattern and package
# list. Compare the full normalized command strings, sorted.
mk_runs=$(sed -n 's/^	$(GO) \(test -race -.*\)$/go \1/p' Makefile | sort)
ci_runs=$(sed -n 's/^ *run: \(go test -race -.*\)$/\1/p' .github/workflows/ci.yml | sort)

if [ -z "$mk_runs" ]; then
    echo "ci-sync-check: could not extract any -race harness lines from the Makefile" >&2
    fail=1
fi
if [ -z "$ci_runs" ]; then
    echo "ci-sync-check: could not extract any -race harness lines from ci.yml" >&2
    fail=1
fi
if [ "$mk_runs" != "$ci_runs" ]; then
    echo "ci-sync-check: -race harness lines differ between Makefile and ci.yml:" >&2
    echo "--- Makefile" >&2
    echo "$mk_runs" >&2
    echo "--- ci.yml" >&2
    echo "$ci_runs" >&2
    fail=1
fi

mk_cfg=$(sed -n '/^config-check:/,/^$/s/^	$(GO) \(test .*\)$/go \1/p' Makefile)
ci_cfg=$(sed -n 's/^ *run: \(go test -count=1 -run .FlagsPinned.*\)$/\1/p' .github/workflows/ci.yml)
if [ -z "$mk_cfg" ] || [ "$mk_cfg" != "$ci_cfg" ]; then
    echo "ci-sync-check: config-check differs between Makefile and ci.yml:" >&2
    echo "--- Makefile: $mk_cfg" >&2
    echo "--- ci.yml:   $ci_cfg" >&2
    fail=1
fi

mk_fuzz=$(sed -n '/^	$(GO) test .* -fuzz /{s/^	$(GO) /go /;s/\$\$/$/;p;}' Makefile | sort)
ci_fuzz=$(sed -n 's/^ *run: \(go test .* -fuzz .*\)$/\1/p' .github/workflows/ci.yml | sort)
if [ -z "$mk_fuzz" ] || [ "$mk_fuzz" != "$ci_fuzz" ]; then
    echo "ci-sync-check: fuzz lines differ between Makefile and ci.yml:" >&2
    echo "--- Makefile" >&2
    echo "$mk_fuzz" >&2
    echo "--- ci.yml" >&2
    echo "$ci_fuzz" >&2
    fail=1
fi
# name@./package/ of every fuzz target declared in a test file.
fuzz_targets=$(grep -rE '^func Fuzz[A-Za-z0-9_]*\(' --include='*_test.go' . |
    sed 's|^\./\(.*/\)[^/]*:func \(Fuzz[A-Za-z0-9_]*\)(.*|\2@./\1|' | sort -u)
for t in $fuzz_targets; do
    name=${t%@*} pkg=${t#*@}
    if ! echo "$mk_fuzz" | awk -v n="$name" -v p="$pkg" '$0 ~ ("-fuzz " n " ") && $NF == p { found = 1 } END { exit !found }'; then
        echo "ci-sync-check: fuzz target $name in $pkg is not run by make fuzz-smoke" >&2
        fail=1
    fi
done

phony=$(sed -n 's/^\.PHONY: //p' Makefile | norm)
targets=$(sed -n 's/^\([a-z][a-z-]*\):.*/\1/p' Makefile | norm)
for t in $targets; do
    if ! echo "$phony" | grep -qx "$t"; then
        echo "ci-sync-check: Makefile target '$t' is missing from .PHONY" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "ci-sync-check: Makefile and ci.yml are in sync"
