package sim

import (
	"math/rand"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// ---------------------------------------------------------------------------
// Appointment (null-message) synchronization
// ---------------------------------------------------------------------------

// newTorusTraffic builds a seeded pseudo-random workload over a rows×cols
// torus of attributed links (4 outbound links per device, heterogeneous
// latencies), seeded but not yet run.
func newTorusTraffic(seed int64) (*Cluster, *ringLog) {
	const rows, cols = 4, 4
	const devs = rows * cols
	cl := NewCluster(devs, 10)
	log := &ringLog{perDev: make([][]string, devs)}
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	// Four outbound links per device in E/W/S/N order, latency varying by
	// direction and device so horizons are genuinely per-edge.
	boxes := make([][]*Mailbox, devs)
	peers := make([][]int, devs)
	lats := make([][]units.Time, devs)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			d := id(r, c)
			ns := []int{id(r, c+1), id(r, c-1), id(r+1, c), id(r-1, c)}
			for k, p := range ns {
				lat := units.Time(10 + 13*((d+k)%5))
				boxes[d] = append(boxes[d], cl.LinkMailbox(d, p, lat))
				peers[d] = append(peers[d], p)
				lats[d] = append(lats[d], lat)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var burst func(dev, depth, dir int) Handler
	burst = func(dev, depth, dir int) Handler {
		eng := cl.Engine(dev)
		return func() {
			log.record(dev, eng.Now())
			if depth <= 0 {
				return
			}
			// Local follow-up inside the horizon…
			eng.After(units.Time(1+depth%7), func() { log.record(dev, eng.Now()) })
			// …then a send to one torus neighbour at exactly the link
			// latency plus deterministic jitter.
			k := (depth + dir) % 4
			boxes[dev][k].Post(eng.Now()+lats[dev][k]+units.Time(depth%11),
				burst(peers[dev][k], depth-1, dir))
		}
	}
	// A minority of devices start active so runnable sets stay sparse —
	// the regime the appointment protocol is built for.
	for d := 0; d < devs; d += 3 {
		cl.Engine(d).At(units.Time(rng.Intn(25)), burst(d, 28, d%4))
	}
	return cl, log
}

// newStarTraffic is the same probe over a hub-and-spoke graph with a 6×
// slower hub uplink on half the leaves — strongly asymmetric per-edge
// latencies.
func newStarTraffic(seed int64) (*Cluster, *ringLog) {
	const leaves = 9
	const devs = leaves + 1 // device 0 is the hub
	cl := NewCluster(devs, 15)
	log := &ringLog{perDev: make([][]string, devs)}
	down := make([]*Mailbox, devs) // hub -> leaf
	up := make([]*Mailbox, devs)   // leaf -> hub
	lat := make([]units.Time, devs)
	for l := 1; l < devs; l++ {
		lat[l] = units.Time(15)
		if l%2 == 0 {
			lat[l] = 90 // slow uplink: intra-window width must differ per edge
		}
		down[l] = cl.LinkMailbox(0, l, lat[l])
		up[l] = cl.LinkMailbox(l, 0, lat[l])
	}
	rng := rand.New(rand.NewSource(seed))
	var bounce func(leaf, depth int) Handler
	bounce = func(leaf, depth int) Handler {
		eng := cl.Engine(0)
		return func() {
			log.record(0, eng.Now())
			if depth <= 0 {
				return
			}
			next := 1 + (leaf+depth)%leaves
			down[next].Post(eng.Now()+lat[next], func() {
				le := cl.Engine(next)
				log.record(next, le.Now())
				le.After(units.Time(2+depth%5), func() {
					up[next].Post(le.Now()+lat[next]+units.Time(depth%7), bounce(next, depth-1))
				})
			})
		}
	}
	cl.Engine(0).At(units.Time(rng.Intn(10)), bounce(0, 40))
	return cl, log
}

// TestClusterAppointmentMatchesWindowed checks worker-count independence
// against the windowed reference: on the torus and star probes, the
// reference run is stepped inline with the full-recompute (windowed) oracle
// checked after every round, and Run at workers 1/2/4 must reproduce its
// log byte for byte and every aggregate stat.
func TestClusterAppointmentMatchesWindowed(t *testing.T) {
	probes := []struct {
		name  string
		build trafficBuilder
	}{
		{"torus", newTorusTraffic},
		{"star", newStarTraffic},
	}
	for _, p := range probes {
		for seed := int64(1); seed <= 3; seed++ {
			wantLog, wantStats := runTraffic(t, p.build, seed, runWithOracle)
			if wantLog == "" {
				t.Fatalf("%s seed=%d: empty reference log", p.name, seed)
			}
			for _, workers := range []int{1, 2, 4} {
				gotLog, gotStats := runTraffic(t, p.build, seed, runWorkers(workers))
				if gotLog != wantLog {
					t.Errorf("%s seed=%d workers=%d: log diverged from the oracle-checked reference",
						p.name, seed, workers)
				}
				if gotStats != wantStats {
					t.Errorf("%s seed=%d workers=%d: stats diverged\n got: %+v\nwant: %+v",
						p.name, seed, workers, gotStats, wantStats)
				}
			}
		}
	}
}

// TestClusterAppointmentDrainAllocs pins the appointment coordinator's
// steady-state allocation behaviour: promise slots, the affected set, the
// candidate list, the posted-box tracking and the blocked list are all
// preallocated, so rounds of drain + incremental relaxation + dispatch must
// not allocate. Counterpart of TestClusterDrainAllocs, which pins the same
// loop over unattributed mailboxes.
func TestClusterAppointmentDrainAllocs(t *testing.T) {
	const devs = 8
	const hopsPerDev = 64
	cl := NewCluster(devs, 10)
	boxes := make([]*Mailbox, devs)
	for d := 0; d < devs; d++ {
		boxes[d] = cl.LinkMailbox(d, (d+1)%devs, 10)
	}
	counts := make([]int, devs)
	handlers := make([]Handler, devs)
	for d := 0; d < devs; d++ {
		d := d
		eng := cl.Engine(d)
		handlers[d] = func() {
			if counts[d]--; counts[d] > 0 {
				boxes[d].Post(eng.Now()+10, handlers[(d+1)%devs])
			}
		}
	}
	seed := func() {
		var t0 units.Time
		for d := 0; d < devs; d++ {
			if now := cl.Engine(d).Now(); now > t0 {
				t0 = now
			}
		}
		for d := 0; d < devs; d++ {
			counts[d] = hopsPerDev
			cl.Engine(d).At(t0+units.Time(d+1), handlers[d])
		}
	}
	seed()
	cl.Run(1) // warm-up: grow every backing array once
	if cl.Stats().NullMessages == 0 {
		t.Fatal("appointment run published no promises")
	}
	allocs := testing.AllocsPerRun(10, func() {
		seed()
		cl.Run(1)
	})
	if allocs > 0.5 {
		t.Errorf("steady-state appointment loop allocates %.2f allocs/run, want 0", allocs)
	}
}

// TestClusterPromiseLawViolationDetected proves the per-edge promise law is
// falsifiable: after the first round has published a promise on a link, a
// model that posts a delivery earlier than that promise must be flagged on
// the appointment rule — the receiver's horizon already trusted the promise.
func TestClusterPromiseLawViolationDetected(t *testing.T) {
	chk := check.New()
	cl := NewCluster(2, 10)
	cl.AttachChecker(chk)
	box := cl.LinkMailbox(0, 1, 100)
	// Keep engine 1 alive across rounds so the lying delivery is drained.
	eng1 := cl.Engine(1)
	n := 30
	var tick Handler
	tick = func() {
		if n--; n > 0 {
			eng1.After(4, tick)
		}
	}
	eng1.At(0, tick)
	eng0 := cl.Engine(0)
	eng0.At(0, func() {
		// The promise on this edge is bound(0)+100 = 100; delivering at 5
		// lies about the link latency.
		box.Post(5, func() {})
	})
	cl.Run(1)
	found := false
	for _, v := range chk.Violations() {
		if v.Rule == "ordering/appointment" {
			found = true
		}
	}
	if !found {
		t.Fatalf("promise violation not detected; violations: %v", chk.Violations())
	}
}

// TestClusterEdgeStalls sanity-checks the per-edge stall attribution: on a
// two-device chain where the receiver is persistently blocked on its single
// slow inbound link, all stall time lands on that edge, and the aggregate
// matches ClusterStats.
func TestClusterEdgeStalls(t *testing.T) {
	cl := NewCluster(2, 10)
	box := cl.LinkMailbox(0, 1, 50)
	eng0 := cl.Engine(0)
	n := 20
	var drive Handler
	drive = func() {
		box.Post(eng0.Now()+50, func() {})
		if n--; n > 0 {
			eng0.After(60, drive)
		}
	}
	eng0.At(0, drive)
	// Engine 1 has distant local work, so it repeatedly blocks on the 0->1
	// link's promise before its own next event.
	cl.Engine(1).At(100000, func() {})
	cl.Run(1)
	st := cl.Stats()
	if st.StalledEngineWindows == 0 || st.StallTime == 0 {
		t.Fatalf("no stalls recorded: %+v", st)
	}
	edges := cl.EdgeStalls()
	if len(edges) != 1 {
		t.Fatalf("EdgeStalls = %+v, want exactly the 0->1 edge", edges)
	}
	e := edges[0]
	if e.Src != 0 || e.Dst != 1 {
		t.Errorf("stall attributed to edge %d->%d, want 0->1", e.Src, e.Dst)
	}
	if e.StallWindows != st.StalledEngineWindows || e.StallTime != st.StallTime {
		t.Errorf("per-edge stalls (%d, %v) disagree with aggregate (%d, %v)",
			e.StallWindows, e.StallTime, st.StalledEngineWindows, st.StallTime)
	}
}

// TestClusterAppointmentStress hammers the promise-refresh path under
// maximal worker counts: a torus where activity migrates between sparse
// device subsets, so promises are refreshed, go quiescent (never), and are
// re-established across many rounds. Under -race this is the promise
// path's stress test; determinism against the oracle-checked reference rides
// along.
func TestClusterAppointmentStress(t *testing.T) {
	wantLog, _ := runTraffic(t, newTorusTraffic, 99, runWithOracle)
	for _, workers := range []int{8, 16} {
		gotLog, st := runTraffic(t, newTorusTraffic, 99, runWorkers(workers))
		if gotLog != wantLog {
			t.Errorf("workers=%d: appointment log diverged under stress", workers)
		}
		if st.NullMessages == 0 {
			t.Errorf("workers=%d: stress run refreshed no promises", workers)
		}
	}
}
