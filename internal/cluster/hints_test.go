package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/model"
)

// TestHintOverflowDropOldest: the hint queue is bounded. An outage longer
// than the bound drops the OLDEST hints (counted), the drain still applies
// what survived, and the lossy queue refuses to clear the member's warming
// gate — only the full SyncNode proves the dropped window was re-pulled.
func TestHintOverflowDropOldest(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.ring.setHintLimit(100)
	e.run(0, 5)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	// 20 missed ticks x 40 series = 800 hints against a 100-sample bound.
	e.run(5, 25)

	st := e.ring.HintStats()
	e.writeChaosLog("hint-stats.log", fmt.Sprintf("hints: %+v\n", st))
	if st.SamplesQueued != 800 || st.SamplesDropped != 700 || st.Pending != 100 {
		t.Fatalf("hint stats %+v, want 800 queued / 700 dropped / 100 pending", st)
	}

	// Revive discards the lossy remainder instead of draining it: applying
	// only the newest survivors would wedge the append-only head past the
	// dropped window. The member must stay out of read coverage.
	if _, err := e.ring.Revive("node-1"); err != nil {
		t.Fatalf("revive: %v", err)
	}
	st = e.ring.HintStats()
	if st.SamplesDrained != 0 || st.SamplesDropped != 800 || st.Pending != 0 {
		t.Fatalf("hint stats after lossy drain %+v, want 0 drained / 800 dropped / 0 pending", st)
	}
	m := e.ring.Member("node-1")
	if _, err := m.SelectWithHints(model.SelectHints{}); !errors.Is(err, ErrNodeWarming) {
		t.Fatalf("lossy-drained member read err = %v, want ErrNodeWarming", err)
	}

	// The full sync fills the whole missed window and clears the gate.
	sync, err := e.ring.SyncNode("node-1")
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	if want := 40 * 20; sync.SamplesApplied != want {
		t.Fatalf("peer pull applied %d, want %d (the whole outage, in order)", sync.SamplesApplied, want)
	}
	if _, err := m.SelectWithHints(model.SelectHints{}, matchAll()); err != nil {
		t.Fatalf("synced member read err = %v, want nil", err)
	}

	// Prove convergence the hard way: reads now depend on node-1.
	if err := e.ring.Kill("node-0"); err != nil {
		t.Fatalf("kill node-0: %v", err)
	}
	e.assertByteExact()
}

// TestHintDisabled: a zero limit turns hinting off — every missed write is
// dropped and counted, nothing is buffered, and recovery is entirely the
// SyncNode pull (the pre-hint behavior, still available for memory-tight
// coordinators).
func TestHintDisabled(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.ring.setHintLimit(0)
	e.run(0, 5)
	if err := e.ring.Kill("node-1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	e.run(5, 15)

	st := e.ring.HintStats()
	if st.SamplesQueued != 0 || st.SamplesDropped != 400 || st.Pending != 0 {
		t.Fatalf("hint stats %+v, want 0 queued / 400 dropped / 0 pending", st)
	}
	replay, sync, err := e.ring.Rejoin("node-1")
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if replay.Samples < 40*5 {
		t.Fatalf("WAL replay recovered %d samples, want >= %d", replay.Samples, 40*5)
	}
	if want := 40 * 10; sync.SamplesApplied != want {
		t.Fatalf("peer pull applied %d, want %d (hints disabled, sync carries it all)", sync.SamplesApplied, want)
	}
	if err := e.ring.Kill("node-0"); err != nil {
		t.Fatalf("kill node-0: %v", err)
	}
	e.assertByteExact()
}
