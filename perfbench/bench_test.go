package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// root is the repository root as seen from this package's directory.
const root = ".."

// The output checks must be falsifiable: each test first shows the
// unperturbed reference passes, then changes one reference value and
// expects exactly one failed operation.

func TestFusedSweepPerturbedReferenceFails(t *testing.T) {
	w, _, err := setupFusedSweep(root, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := w.(*fusedSweep)
	f.cases, f.rs = f.cases[:1], f.rs[:1] // one sub-layer, one Fig 14 size
	rng := rand.New(rand.NewSource(1))
	if r := f.pass(rng, nil); r.ops != (opCount{attempted: 2}) {
		t.Fatalf("unperturbed pass: %+v, want 2 attempted, 0 failed", r.ops)
	}

	f.cases[0].fig16 = append([]string(nil), f.cases[0].fig16...)
	f.cases[0].fig16[1] = "9.99x" // the T3-MCA speedup
	if r := f.pass(rng, nil); r.ops != (opCount{attempted: 2, failed: 1}) {
		t.Fatalf("perturbed speedup: %+v, want 1 of 2 failed", r.ops)
	}

	w, _, _ = setupFusedSweep(root, nil, nil)
	f = w.(*fusedSweep)
	f.cases, f.rs = f.cases[:0], f.rs[:1]
	f.rs[0].want = []string{f.rs[0].want[0] + "0", f.rs[0].want[1]}
	if r := f.pass(rng, nil); r.ops != (opCount{attempted: 1, failed: 1}) {
		t.Fatalf("perturbed Fig 14 row: %+v, want 1 of 1 failed", r.ops)
	}
}

func TestMultiDensePerturbedDigestFails(t *testing.T) {
	w, _, err := setupMulti(root, "hier-2x32")
	if err != nil {
		t.Fatal(err)
	}
	m := w.(*multiDevice)
	rng := rand.New(rand.NewSource(1))
	if r := m.pass(rng, nil); r.ops != (opCount{attempted: 1}) {
		t.Fatalf("unperturbed pass: %+v, want 1 attempted, 0 failed", r.ops)
	}
	m.shapes[0].digest = "0" + m.shapes[0].digest[1:]
	if r := m.pass(rng, nil); r.ops != (opCount{attempted: 1, failed: 1}) {
		t.Fatalf("perturbed digest: %+v, want 1 of 1 failed", r.ops)
	}
}

func TestWarmReplayPerturbedSnapshotFails(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w, ops, err := newWarmReplay(root, []string{"fig6", "table2"}, rng)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if ops != (opCount{attempted: 2}) {
		t.Fatalf("cold run: %+v, want 2 attempted, 0 failed", ops)
	}
	var r opCount
	w.replay(rng, nil, &r)
	if r != (opCount{attempted: 2}) {
		t.Fatalf("unperturbed replay: %+v, want 2 attempted, 0 failed", r)
	}
	if st := w.st.Stats(); st.Hits == 0 {
		t.Fatalf("warm replay served nothing from the store: %+v", st)
	}
	w.golden[0] = append([]byte(nil), w.golden[0]...)
	w.golden[0][len(w.golden[0])/2] ^= 1
	r = opCount{}
	w.replay(rng, nil, &r)
	if r != (opCount{attempted: 2, failed: 1}) {
		t.Fatalf("perturbed snapshot: %+v, want 1 of 2 failed", r)
	}
}

// TestBenchmarkDefinition holds BENCHMARK.json to the names and units this
// program reports.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		name string
		json []metric
		prog []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(set.json) != len(set.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", set.name, len(set.json), len(set.prog))
			continue
		}
		for i, m := range set.json {
			if m.Name != set.prog[i].name || m.Unit != set.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					set.name, i, m.Name, m.Unit, set.prog[i].name, set.prog[i].unit)
			}
		}
	}
}
