package cluster

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestHandoffPartitionedSourceSkipped: a partitioned peer silently drops
// out of the source set — the sync still completes from the remaining
// complete replica and the target rejoins reads.
func TestHandoffPartitionedSourceSkipped(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 10)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	e.run(10, 15)
	if _, err := e.ring.Revive("node-1"); err != nil {
		t.Fatalf("revive: %v", err)
	}
	e.ring.Partition("node-2")

	sync, err := e.ring.SyncNode("node-1")
	if err != nil {
		t.Fatalf("sync with one partitioned source: %v", err)
	}
	if sync.Peers != 1 {
		t.Fatalf("sync used %d peers, want 1 (node-2 is partitioned)", sync.Peers)
	}
	if want := 40 * 5; sync.SamplesApplied != want {
		t.Fatalf("sync applied %d samples, want %d", sync.SamplesApplied, want)
	}
	if _, err := e.ring.Member("node-1").SelectWithHints(model.SelectHints{}, matchAll()); err != nil {
		t.Fatalf("synced member read err = %v, want nil", err)
	}
}

// TestHandoffAllSourcesUnavailable: when every potential source is down or
// partitioned, SyncNode must FAIL rather than silently clear the warming
// gate on a member whose holes nothing could have filled.
func TestHandoffAllSourcesUnavailable(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 10)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	e.run(10, 15)
	if _, err := e.ring.Revive("node-1"); err != nil {
		t.Fatalf("revive: %v", err)
	}
	if err := e.ring.Kill("node-0"); err != nil {
		t.Fatalf("kill node-0: %v", err)
	}
	e.ring.Partition("node-2")

	_, err := e.ring.SyncNode("node-1")
	if err == nil || !strings.Contains(err.Error(), "no usable sources") {
		t.Fatalf("sync with no sources err = %v, want 'no usable sources'", err)
	}
	// The gate held: the unproven member still refuses reads.
	if _, err := e.ring.Member("node-1").SelectWithHints(model.SelectHints{}); !errors.Is(err, ErrNodeWarming) {
		t.Fatalf("unsynced member read err = %v, want ErrNodeWarming", err)
	}

	// Heal the partition and the same sync succeeds.
	e.ring.Heal()
	if _, err := e.ring.SyncNode("node-1"); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
	e.assertCoversOracle()
}

// TestHandoffWarmingExcluded: a warming member neither serves reads nor
// acts as a handoff source for another member's sync — its history may
// still have holes, and holes must not propagate.
func TestHandoffWarmingExcluded(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 10)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	e.run(10, 15)
	if _, err := e.ring.Revive("node-1"); err != nil {
		t.Fatalf("revive: %v", err)
	}

	// Excluded from reads: the member errors, the quorum read still answers
	// byte-exactly over the two complete replicas.
	if _, err := e.ring.Member("node-1").SelectWithHints(model.SelectHints{}); !errors.Is(err, ErrNodeWarming) {
		t.Fatalf("warming member read err = %v, want ErrNodeWarming", err)
	}
	e.assertByteExact()

	// Excluded as a source: a second member syncing now must lean on the
	// one complete replica only.
	if err := e.ring.Kill("node-2"); err != nil {
		t.Fatalf("kill node-2: %v", err)
	}
	if _, err := e.ring.Revive("node-2"); err != nil {
		t.Fatalf("revive node-2: %v", err)
	}
	sync, err := e.ring.SyncNode("node-2")
	if err != nil {
		t.Fatalf("sync node-2: %v", err)
	}
	if sync.Peers != 1 {
		t.Fatalf("sync used %d peers, want 1 (node-1 is warming)", sync.Peers)
	}
}
