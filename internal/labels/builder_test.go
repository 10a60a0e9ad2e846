package labels

import (
	"math/rand"
	"testing"
)

// builderOp is one Set (del false) or Del (del true) call on a Builder.
type builderOp struct {
	name, value string
	del         bool
}

// applyOps replays ops on a fresh Builder over base.
func applyOps(base Labels, ops []builderOp) *Builder {
	b := NewBuilder(base)
	for _, op := range ops {
		if op.del {
			b.Del(op.name)
		} else {
			b.Set(op.name, op.value)
		}
	}
	return b
}

// oracleLabels is the map path Builder.Labels took before it merged —
// the base as a map, edits applied, FromMap's sort — with each edit applied
// in call order, so the last Set or Del of a name wins.
func oracleLabels(base Labels, ops []builderOp) Labels {
	m := base.Map()
	for _, op := range ops {
		if op.del || op.value == "" {
			delete(m, op.name)
		} else {
			m[op.name] = op.value
		}
	}
	return FromMap(m)
}

// TestBuilderLastOpWins pins the cases where an earlier edit of a name used
// to outlive a later one.
func TestBuilderLastOpWins(t *testing.T) {
	base := FromStrings("job", "j", "z", "1")
	for _, c := range []struct {
		desc string
		ops  []builderOp
		want Labels
	}{
		{"set then set empty", []builderOp{{name: "job", value: "x"}, {name: "job"}}, FromStrings("z", "1")},
		{"set then del", []builderOp{{name: "a", value: "x"}, {name: "a", del: true}}, base},
		{"del then set", []builderOp{{name: "job", del: true}, {name: "job", value: "y"}}, FromStrings("job", "y", "z", "1")},
		{"set empty then set", []builderOp{{name: "z"}, {name: "z", value: "2"}}, FromStrings("job", "j", "z", "2")},
	} {
		if got := applyOps(base, c.ops).Labels(); !got.Equal(c.want) {
			t.Errorf("%s: %v, want %v", c.desc, got, c.want)
		}
	}
}

// TestBuilderMatchesOracleRandom: random sorted bases (empty values and
// names that sort before __name__ included) and random Set/Del sequences
// give the oracle's labels, in a slice exactly as long as the result, and
// leave the base as it was.
func TestBuilderMatchesOracleRandom(t *testing.T) {
	names := []string{"Zone", "__name__", "a", "cluster", "instance", "job", "uuid", "zz"}
	values := []string{"", "1", "x", "ceems"}
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 5000; trial++ {
		m := map[string]string{}
		for _, n := range names {
			if rng.Intn(2) == 0 {
				m[n] = values[rng.Intn(len(values))]
			}
		}
		base := FromMap(m)
		before := base.Copy()
		ops := make([]builderOp, rng.Intn(7))
		for i := range ops {
			ops[i] = builderOp{name: names[rng.Intn(len(names))], value: values[rng.Intn(len(values))], del: rng.Intn(4) == 0}
		}
		got := applyOps(base, ops).Labels()
		want := oracleLabels(base, ops)
		if !got.Equal(want) {
			t.Fatalf("trial %d: base %v, ops %+v: %v, want %v", trial, base, ops, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("trial %d: %d labels in a slice of capacity %d", trial, len(got), cap(got))
		}
		if !base.Equal(before) {
			t.Fatalf("trial %d: base changed from %v to %v", trial, before, base)
		}
	}
}

// builderShapes are the two producers' edits: the bench agent's push stamp
// (an exporter series of six labels, four target labels laid over it) and a
// recording rule's result (an aggregated series without a name, the record
// name and one rule label laid over it).
var builderShapes = []struct {
	name string
	base Labels
	sets []string
}{
	{"stamp", FromStrings(MetricName, "ceems_gpu_energy_joules_total", "gpu", "0", "gpuuuid", "GPU-5f0c", "hostname", "gpu-n07", "index", "0", "uuid", "1234567"),
		[]string{"job", "ceems", "instance", "gpu-n07:9100", "nodeclass", "nvidia", "cluster", "jz"}},
	{"recorded", FromStrings("hostname", "gpu-n07", "instance", "gpu-n07:9100", "job", "ceems", "nodeclass", "nvidia", "uuid", "1234567"),
		[]string{MetricName, "uuid:ceems_gpu_power_watts:sum", "cluster", "jz"}},
}

// TestBuilderLabelsAllocatesResultOnly: materialising a built set makes one
// allocation, its result.
func TestBuilderLabelsAllocatesResultOnly(t *testing.T) {
	for _, s := range builderShapes {
		b := NewBuilder(s.base)
		for i := 0; i < len(s.sets); i += 2 {
			b.Set(s.sets[i], s.sets[i+1])
		}
		if n := testing.AllocsPerRun(100, func() { b.Labels() }); n != 1 {
			t.Errorf("%s: Labels made %v allocations, want 1", s.name, n)
		}
	}
}

// BenchmarkBuilderLabels builds one label set per op the way its producers
// do: NewBuilder, the Sets, Labels.
func BenchmarkBuilderLabels(b *testing.B) {
	for _, s := range builderShapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			var ls Labels
			for i := 0; i < b.N; i++ {
				lb := NewBuilder(s.base)
				for j := 0; j < len(s.sets); j += 2 {
					lb.Set(s.sets[j], s.sets[j+1])
				}
				ls = lb.Labels()
			}
			if want := len(s.base) + len(s.sets)/2; len(ls) != want {
				b.Fatalf("%d labels, want %d", len(ls), want)
			}
		})
	}
}
