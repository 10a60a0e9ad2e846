package cluster

import (
	"fmt"
	"testing"
)

// TestReadRepairConvergence: a healed partition leaves one replica
// quietly stale — quorum reads mask the gap, but
// nothing else would ever fill it. The scatter merge must notice the
// replica returning less than the merged answer and asynchronously
// back-fill it until the replica is byte-exact on its own.
func TestReadRepairConvergence(t *testing.T) {
	e := newChaosEnv(t, 3, 3, 2, 40)
	e.run(0, 10)
	e.ring.Partition("node-2")
	e.run(10, 20)
	e.ring.Heal()

	// node-2 is back in read coverage but missing ticks 10-19 on every
	// series. A quorum read both answers correctly AND flags the gap.
	e.assertByteExact()
	e.ring.Scatter().WaitRepairs()

	st := e.ring.Scatter().RepairStatsSnapshot()
	e.writeChaosLog("repair-stats.log", fmt.Sprintf("repairs: %+v\n", st))
	if st.SeriesRepaired == 0 {
		t.Fatal("read repair repaired nothing; node-2 is missing 10 ticks on 40 series")
	}
	if want := uint64(40 * 10); st.SamplesRepaired != want {
		t.Fatalf("read repair back-filled %d samples, want %d", st.SamplesRepaired, want)
	}
	if st.Errors != 0 {
		t.Fatalf("read repair hit %d errors: %+v", st.Errors, st)
	}

	// The sharp check: the repaired replica alone is now byte-exact — not
	// just masked by the merge.
	got := dumpAll(t, e.ring.Member("node-2").DB().SelectWithHints)
	want := dumpAll(t, e.oracle.SelectWithHints)
	compareDumps(t, "node-2 after repair", got, want)

	// And a second read schedules nothing new: repair converges, it does
	// not loop.
	e.assertByteExact()
	e.ring.Scatter().WaitRepairs()
	if again := e.ring.Scatter().RepairStatsSnapshot(); again.SeriesRepaired != st.SeriesRepaired {
		t.Fatalf("repair did not converge: %+v then %+v", st, again)
	}
}
