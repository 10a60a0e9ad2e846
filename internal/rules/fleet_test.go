package rules_test

import (
	"testing"

	"repro/internal/labels"
	"repro/internal/model"
	"repro/internal/rules"
	"repro/internal/rules/ceemsrules"
	"repro/internal/rules/rulefeed"
	"repro/internal/tsdb"
)

// countingStore counts what rule evaluation asks of storage: Selects on the
// read side, commits and single appends on the write side.
type countingStore struct {
	db                       *tsdb.DB
	selects, batches, single int
}

func (c *countingStore) SelectWithHints(h model.SelectHints, ms ...*labels.Matcher) ([]model.Series, error) {
	c.selects++
	return c.db.SelectWithHints(h, ms...)
}

func (c *countingStore) Append(l labels.Labels, t int64, v float64) error {
	c.single++
	return c.db.Append(l, t, v)
}

func (c *countingStore) AppendBatch(lsets []labels.Labels, samples []model.Sample) (int, error) {
	c.batches++
	return c.db.AppendBatch(lsets, samples)
}

// One EvalAll of the CEEMS groups reads each distinct raw (matchers, window)
// from storage once per group and nothing a rule of the same group just
// produced: 43 raw reads plus the emissions group's four reads of the other
// groups' uuid:total_watts. The per-rule loop issued 125. On the write side
// it is one commit per group, where the loop appended sample by sample.
func TestEvalAllSelectCount(t *testing.T) {
	store := &countingStore{db: tsdb.MustOpen(tsdb.DefaultOptions())}
	fleet := rulefeed.New(8, 2)
	ts := equivT0
	for i := 0; i < 10; i++ {
		fleet.Scrape(ts, func(ls labels.Labels, t int64, v float64) { store.db.Append(ls, t, v) })
		ts += 15000
	}
	m := &rules.Manager{
		Engine: rules.NewEngine(nil), Query: store, Dest: store,
		Groups: ceemsrules.AllGroups(ceemsrules.DefaultOptions()),
	}
	for round := 0; round < 2; round++ { // the second with every recorded name already in storage
		store.selects, store.batches, store.single = 0, 0, 0
		if err := m.EvalAll(model.MillisToTime(ts - 15000 + int64(round)*60000)); err != nil {
			t.Fatal(err)
		}
		if store.selects > 47 {
			t.Errorf("round %d: %d storage Selects per EvalAll, want ≤ 47", round, store.selects)
		}
		if store.batches > len(m.Groups) || store.single != 0 {
			t.Errorf("round %d: %d commits and %d single appends per EvalAll, want ≤ %d and 0", round, store.batches, store.single, len(m.Groups))
		}
	}
	written := 0
	for _, st := range m.Engine.Stats() {
		written += st.SeriesLastWrite
	}
	if written < 100 {
		t.Errorf("EvalAll wrote %d samples; the fleet should keep every rule busy", written)
	}
}
