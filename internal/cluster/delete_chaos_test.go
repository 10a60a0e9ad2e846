package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/tsdb"
)

// deleteIdx matches the chaos series with idx 000..009 — the slice every
// delete scenario tombstones.
func deleteIdx() *labels.Matcher {
	return labels.MustMatcher(labels.MatchRegexp, "idx", "00[0-9]")
}

// writeChaosLog drops a stats file into the chaos artifact dir so a red CI
// run uploads the tombstone and handoff state alongside the WAL dirs.
func (e *chaosEnv) writeChaosLog(name, content string) {
	os.WriteFile(filepath.Join(e.dir, name), []byte(content), 0o644)
}

// TestTombstoneDeleteDuringPartition: an acked delete issued while one
// replica is partitioned must never resurrect. The partitioned member is
// read-gated (ErrNodeStale) until the tombstone reaches it through
// SyncNode's tombstone union, and the quorum read stays byte-exact to the
// oracle before, during and after — including once reads depend on the
// formerly partitioned member.
func TestTombstoneDeleteDuringPartition(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 20)
	e.ring.Partition("node-2")

	out, err := e.ring.DeleteSeriesQuorum(deleteIdx())
	if err != nil {
		t.Fatalf("delete during partition should still reach quorum: %v", err)
	}
	e.oracle.DeleteSeries(deleteIdx())
	e.writeChaosLog("tombstone-stats.log", fmt.Sprintf("delete: %+v\n", out))

	// Satellite check: the per-member outcome names exactly who applied and
	// who was skipped, and why.
	if out.Acks != 2 || out.Deleted != 10 {
		t.Fatalf("delete outcome %+v, want 2 acks deleting 10 series", out)
	}
	for _, mo := range out.Members {
		switch mo.Member {
		case "node-2":
			if !errors.Is(mo.Err, ErrNodePartitioned) {
				t.Fatalf("node-2 outcome %+v, want ErrNodePartitioned", mo)
			}
		default:
			if mo.Err != nil || mo.Count != 10 {
				t.Fatalf("%s outcome %+v, want 10 deleted", mo.Member, mo)
			}
		}
	}

	// The survivors answer byte-exactly, with the deleted series gone (the
	// partitioned member is unreachable and out of coverage anyway).
	e.assertByteExact()

	// Keep scraping through the partition (re-creating the deleted series
	// at later ticks), then heal and sync: the union applies the tombstone
	// FIRST and the pull the missed samples second, replaying exactly the
	// order the oracle saw.
	e.run(20, 30)
	e.ring.Heal()
	sync, err := e.ring.SyncNode("node-2")
	if err != nil {
		t.Fatalf("sync healed member: %v", err)
	}
	if sync.TombstonesApplied != 1 || sync.SamplesApplied != 40*10 {
		t.Fatalf("sync %+v, want 1 tombstone and %d samples applied (the missed delete and ticks)", sync, 40*10)
	}
	// The sharp check: the synced member alone is byte-exact — not just
	// masked by the quorum merge.
	compareDumps(t, "node-2 alone after sync", dumpAll(t, e.ring.Member("node-2").DB().SelectWithHints), dumpAll(t, e.oracle.SelectWithHints))
	e.assertByteExact()

	// Round two: Heal alone does not carry the tombstone, so the stale
	// member must visibly gate itself — reachable, but refusing reads —
	// until the SyncNode tombstone union reaches it.
	e.ring.Partition("node-2")
	if out, err := e.ring.DeleteSeriesQuorum(labels.MustMatcher(labels.MatchRegexp, "idx", "01[0-9]")); err != nil || out.Acks != 2 {
		t.Fatalf("second delete: %+v, %v", out, err)
	}
	e.oracle.DeleteSeries(labels.MustMatcher(labels.MatchRegexp, "idx", "01[0-9]"))
	e.ring.Heal()
	if _, err := e.ring.Member("node-2").readable(); !errors.Is(err, ErrNodeStale) {
		t.Fatalf("stale member read err = %v, want ErrNodeStale", err)
	}
	e.assertByteExact()

	sync, err = e.ring.SyncNode("node-2")
	if err != nil {
		t.Fatalf("sync stale member: %v", err)
	}
	if sync.TombstonesApplied != 1 {
		t.Fatalf("sync applied %d tombstones, want 1 (the missed delete)", sync.TombstonesApplied)
	}

	// Force reads to depend on the synced member: any resurrected series or
	// missed sample on node-2 becomes visible now.
	if err := e.ring.Kill("node-0"); err != nil {
		t.Fatalf("kill node-0: %v", err)
	}
	e.assertByteExact()
}

// TestTombstoneDeleteKillRejoin: the delete lands while a member is DEAD;
// its own WAL replay at rejoin resurrects the deleted series locally, and
// SyncNode's tombstone union must kill them again before the member
// serves a single read. "An acked delete is never resurrected."
func TestTombstoneDeleteKillRejoin(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 20)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if out, err := e.ring.DeleteSeriesQuorum(deleteIdx()); err != nil || out.Acks != 2 {
		t.Fatalf("delete with one node down: %+v, %v", out, err)
	}
	e.oracle.DeleteSeries(deleteIdx())
	e.run(20, 30)

	replay, sync, err := e.ring.Rejoin("node-1")
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	e.writeChaosLog("tombstone-stats.log",
		fmt.Sprintf("replay: %+v\nhandoff: %+v\n", replay, sync))

	// The WAL really did resurrect the deleted window locally...
	if replay.Samples < 40*20 {
		t.Fatalf("WAL replay recovered %d samples, want >= %d", replay.Samples, 40*20)
	}
	// ...and the sync delivered the tombstone plus the missed ticks.
	if sync.TombstonesApplied != 1 || sync.SamplesApplied != 40*10 {
		t.Fatalf("sync %+v, want 1 tombstone and %d samples applied (the missed delete and ticks)", sync, 40*10)
	}

	// Reads that depend on the rejoined member must not see the deleted
	// series come back.
	if err := e.ring.Kill("node-2"); err != nil {
		t.Fatalf("kill node-2: %v", err)
	}
	e.assertByteExact()
}

// TestTombstoneCoordinatorRestart: the durable tombstone logs in the
// members' WALs are what must carry the delete across a full coordinator
// restart. A member that slept through the delete rejoins a NEW
// coordinator, whose startup anti-entropy unions its peers' logs onto it
// before anything is read.
func TestTombstoneCoordinatorRestart(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 20)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if out, err := e.ring.DeleteSeriesQuorum(deleteIdx()); err != nil || out.Acks != 2 {
		t.Fatalf("delete with one node down: %+v, %v", out, err)
	}
	e.oracle.DeleteSeries(deleteIdx())
	e.run(20, 25)

	// Coordinator crash: only the WALs and their tombstone records survive.
	if err := e.ring.Close(); err != nil {
		t.Fatalf("close ring: %v", err)
	}
	open := func(name string) (*tsdb.DB, error) {
		opts := tsdb.DefaultOptions()
		opts.WALDir = filepath.Join(e.dir, "wal", name)
		return tsdb.Open(opts)
	}
	ring2, err := NewRingDB(3, 2, 0, open, names(3)...)
	if err != nil {
		t.Fatalf("reopen ring: %v", err)
	}
	defer ring2.Close()
	e.ring = ring2

	// node-1's own WAL replay resurrected the deleted window; the startup
	// tombstone union must have re-killed it from its peers' durable logs.
	db := ring2.Member("node-1").DB()
	if got := len(db.Tombstones()); got != 1 {
		t.Fatalf("node-1 holds %d tombstones after restart sync, want 1", got)
	}
	if got, err := db.SelectWithHints(model.SelectHints{}, deleteIdx()); err != nil || len(got) != 0 {
		t.Fatalf("deleted series resurrected on node-1 after restart: %d series, err %v", len(got), err)
	}
	// ...and the allocator resumed past the persisted max, so the next
	// delete gets a fresh sequence number.
	if out, err := ring2.DeleteSeriesQuorum(labels.MustMatcher(labels.MatchEqual, "idx", "010")); err != nil || out.Seq != 2 {
		t.Fatalf("post-restart delete outcome %+v (err %v), want seq 2", out, err)
	}
	e.oracle.DeleteSeries(labels.MustMatcher(labels.MatchEqual, "idx", "010"))
	e.assertByteExact()
}

// TestQuorumTruncateOutcomes: cluster-wide maintenance reports per-member
// outcomes instead of silently skipping the members it missed.
func TestQuorumTruncateOutcomes(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 20)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}

	dropped, outs := e.ring.Truncate(10 * 15000)
	if len(outs) != 3 {
		t.Fatalf("got %d member outcomes, want 3", len(outs))
	}
	for _, mo := range outs {
		if mo.Member == "node-1" {
			if !errors.Is(mo.Err, ErrNodeDown) {
				t.Fatalf("dead member outcome %+v, want ErrNodeDown", mo)
			}
			continue
		}
		// The two live replicas hold identical content, so each per-member
		// count equals the reported cluster-wide max.
		if mo.Err != nil || mo.Count != dropped {
			t.Fatalf("%s outcome %+v, want count %d", mo.Member, mo, dropped)
		}
	}
	e.oracle.Truncate(10 * 15000)
	e.assertByteExact()
}
