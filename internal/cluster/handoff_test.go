package cluster

import (
	"errors"
	"math"
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
	if _, err := e.ring.Member("node-1").readable(); err != nil {
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
	if _, err := e.ring.Member("node-1").readable(); !errors.Is(err, ErrNodeWarming) {
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
	if _, err := e.ring.Member("node-1").readable(); !errors.Is(err, ErrNodeWarming) {
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

// TestHandoffJoinLeaveConcurrentIO: commits and quorum reads keep running
// while members join and leave. The data paths iterate the member map with
// no lock, so a topology change must publish a new map rather than write
// the one they hold (the race detector checks that), and every acked write
// must still read back byte-exactly once the ring is quiet.
func TestHandoffJoinLeaveConcurrentIO(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 20)
	e.run(0, 5)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for tick := 5; ; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.commit(tick); err != nil {
				t.Errorf("tick %d during membership change: %v", tick, err)
				return
			}
			if _, err := e.ring.SelectWithHints(model.SelectHints{End: math.MaxInt64}, matchAll()); err != nil {
				t.Errorf("read at tick %d during membership change: %v", tick, err)
				return
			}
		}
	}()
	for _, n := range []string{"node-3", "node-4"} {
		if _, err := e.ring.Join(n); err != nil {
			t.Errorf("join %s: %v", n, err)
		}
		if _, err := e.ring.Leave(n); err != nil {
			t.Errorf("leave %s: %v", n, err)
		}
	}
	close(stop)
	<-done
	if t.Failed() {
		return
	}
	e.assertByteExact()
}
