package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"

	"t3sim"
)

// replaysPerPass is how many warm replays of the slice one pass makes.
const replaysPerPass = 8

// uncachedExps are the slice's experiments the result store cannot serve:
// custom-arbiter and observer runs are cache barriers and simulate again.
var uncachedExps = map[string]bool{"fig17": true, "ablation-arb": true}

// warmReplay replays a catalogue slice from a persistent result store that
// set-up populated cold. Each replay starts a fresh in-memory memo cache on
// the same store, as a new process of the same build would.
type warmReplay struct {
	dir     string
	st      *t3sim.ResultStore
	entries []t3sim.ExperimentCatalogueEntry
	golden  [][]byte
	cold    t3sim.ResultStoreStats
	fig16   []byte // the last replayed Figure 16 output
}

func setupWarmReplay(root string, rng *rand.Rand, _ *tracer) (workload, opCount, error) {
	return newWarmReplay(root, replaySlice, rng)
}

// newWarmReplay opens a fresh store under the checkout's .bench_build/ and
// runs the named experiments into it cold.
func newWarmReplay(root string, names []string, rng *rand.Rand) (*warmReplay, opCount, error) {
	w := &warmReplay{}
	for _, name := range names {
		e, ok := t3sim.ExperimentByName(name)
		if !ok {
			return nil, opCount{}, fmt.Errorf("experiment %q missing from the catalogue", name)
		}
		g, err := goldenBytes(root, name)
		if err != nil {
			return nil, opCount{}, err
		}
		w.entries = append(w.entries, e)
		w.golden = append(w.golden, g)
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, opCount{}, err
	}
	var err error
	if w.dir, err = os.MkdirTemp(scratch, "store-"); err != nil {
		return nil, opCount{}, err
	}
	if w.st, err = t3sim.OpenResultStore(w.dir, t3sim.StoreReadWrite); err != nil {
		w.close()
		return nil, opCount{}, err
	}
	// The cold run is set-up, not a layer measurement: it stays untraced.
	var ops opCount
	w.replay(rng, nil, &ops)
	w.st.Flush()
	w.cold = w.st.Stats()
	return w, ops, nil
}

// replay runs the slice once, in an order drawn from rng, with a fresh memo
// cache on the store, checking each rendered output against its snapshot.
// It returns the memo cache's hit and miss counts.
func (w *warmReplay) replay(rng *rand.Rand, tr *tracer, ops *opCount) (hits, misses int64) {
	memo := t3sim.NewExperimentMemoCache()
	memo.AttachStore(w.st)
	setup := t3sim.DefaultExperimentSetup()
	setup.Memo = memo
	runner := t3sim.NewExperimentRunner(setup, 1)
	for _, i := range rng.Perm(len(w.entries)) {
		e := w.entries[i]
		id := tr.start("experiments." + e.Name + "_s")
		res, err := e.Run(runner)
		tr.stop(id)
		if err == nil {
			out := []byte(res.Render() + "\n")
			if e.Name == "fig16" {
				w.fig16 = out
			}
			if !bytes.Equal(out, w.golden[i]) {
				err = fmt.Errorf("rendered output differs from %s/%s.golden", goldenDir, e.Name)
			}
		}
		ops.record(e.Name, err)
	}
	return memo.Stats()
}

var fig16Geomeans = regexp.MustCompile(`geomean: T3 ([0-9.]+)x, T3-MCA ([0-9.]+)x`)

func (w *warmReplay) pass(rng *rand.Rand, tr *tracer) passResult {
	r := passResult{counts: map[string]float64{}}
	before := w.st.Stats()
	for i := 0; i < replaysPerPass; i++ {
		h, m := w.replay(rng, tr, &r.ops)
		r.counts["experiments.memo_hits"] += float64(h)
		r.counts["experiments.memo_misses"] += float64(m)
	}
	after := w.st.Stats()
	r.counts["store.hits"] = float64(after.Hits - before.Hits)
	r.counts["store.misses"] = float64(after.Misses - before.Misses)
	r.counts["store.corrupt"] = float64(after.Corrupt - before.Corrupt)
	r.counts["store.bytes_read"] = float64(after.BytesRead - before.BytesRead)
	// The replayed Figure 16 prints its geomeans rounded to two places.
	if g := fig16Geomeans.FindSubmatch(w.fig16); g != nil {
		t3, _ := strconv.ParseFloat(string(g[1]), 64)
		mca, _ := strconv.ParseFloat(string(g[2]), 64)
		r.counts["paper_err_pct"] = 100 * (math.Abs(t3/paperT3-1) + math.Abs(mca/paperMCA-1)) / 2
	}
	return r
}

func (w *warmReplay) probe(*tracer, map[string]float64) opCount { return opCount{} }

func (w *warmReplay) derive(m map[string]float64) {
	var total, uncached float64
	for _, name := range replaySlice {
		v := m["experiments."+name+"_s"]
		total += v
		if uncachedExps[name] {
			uncached += v
		}
	}
	if total > 0 {
		m["experiments.uncached_share"] = uncached / total
	}
	m["store.puts"] = float64(w.cold.Puts)
	m["store.bytes_written"] = float64(w.cold.BytesWritten)
}

func (w *warmReplay) manifest(m map[string]any) {
	m["replays_per_pass"] = replaysPerPass
	m["par_workers"] = 0
}

func (w *warmReplay) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
