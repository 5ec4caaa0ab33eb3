package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// fullRecompute is the from-scratch reference for the coordinator's
// per-round fixpoint: the windowed pass, which re-derives every bound,
// horizon and runnable status from the current bases with a full
// multi-source Dijkstra over the link graph. The cluster maintains the same
// values incrementally (computeWindowsAppointment); runWithOracle checks the
// two agree after every round.
type fullRecompute struct {
	bound    []units.Time // B_j
	linkH    []units.Time // min over inbound links of B_s + latency (no open floor)
	horizons []units.Time // H_i, open floor applied
	hsup     []int32      // inbound eid defining H_i; -2 open floor, -1 none
	runnable []int32
	heap     djHeap
}

// compute derives the round's fixpoint from c's bases, given the globally
// earliest pending event baseMin. It reads c and writes only o.
//
// The bound pass seeds every engine with min(base, open-inbox floor) and
// relaxes through outbound links, so B_j ends at the earliest time any
// pending event anywhere can influence j. The horizon pass then takes, per
// engine, the minimum over inbound links of B_source + latency (floored by
// the open-inbox window): the first instant a not-yet-posted message could
// demand delivery.
func (o *fullRecompute) compute(c *Cluster, baseMin units.Time) {
	n := len(c.engines)
	if len(o.bound) != n {
		o.bound = make([]units.Time, n)
		o.linkH = make([]units.Time, n)
		o.horizons = make([]units.Time, n)
		o.hsup = make([]int32, n)
	}
	open := baseMin + c.lookahead
	o.heap.reset()
	for i := 0; i < n; i++ {
		b := c.base[i]
		if c.openInbox[i] && open < b {
			b = open
		}
		o.bound[i] = b
		if b != never {
			o.heap.push(djItem{t: b, eng: int32(i)})
		}
	}
	for o.heap.len() > 0 {
		it := o.heap.pop()
		if it.t > o.bound[it.eng] {
			continue // stale entry superseded by a tighter bound
		}
		for _, e := range c.out[it.eng] {
			if nb := it.t + e.lat; nb < o.bound[e.peer] {
				o.bound[e.peer] = nb
				o.heap.push(djItem{t: nb, eng: e.peer})
			}
		}
	}
	o.runnable = o.runnable[:0]
	for i := 0; i < n; i++ {
		h, hs := never, int32(-1)
		for _, e := range c.in[i] {
			if b := o.bound[e.peer]; b != never && b+e.lat < h {
				h, hs = b+e.lat, e.eid
			}
		}
		o.linkH[i] = h
		if c.openInbox[i] && open < h {
			h, hs = open, -2
		}
		o.horizons[i] = h
		o.hsup[i] = hs
		if c.base[i] < h {
			o.runnable = append(o.runnable, int32(i))
		}
	}
}

// diff reports the first way c's incremental state departs from the
// reference: a bound, an inbound-promise minimum, a horizon or its support,
// a blocked flag, a published promise, the runnable set, or the
// unattributed-mail barrier. Horizon support is compared up to ties: when
// several inbound promises equal the horizon, any of them is a correct
// support.
func (o *fullRecompute) diff(c *Cluster, baseMin units.Time) error {
	if !slices.Equal(c.runnable, o.runnable) {
		return fmt.Errorf("runnable %v, want %v", c.runnable, o.runnable)
	}
	if want := baseMin + c.lookahead; c.barrier != want {
		return fmt.Errorf("barrier %v, want %v", c.barrier, want)
	}
	for i := range c.engines {
		if c.bound[i] != o.bound[i] {
			return fmt.Errorf("engine %d: bound %v, want %v", i, c.bound[i], o.bound[i])
		}
		if c.linkH[i] != o.linkH[i] {
			return fmt.Errorf("engine %d: inbound promise minimum %v, want %v", i, c.linkH[i], o.linkH[i])
		}
		h := o.horizons[i]
		if c.horizons[i] != h {
			return fmt.Errorf("engine %d: horizon %v, want %v", i, c.horizons[i], h)
		}
		if got, want := c.hsup[i], o.hsup[i]; got != want && !(got >= 0 && want >= 0 && o.supports(c, i, got, h)) {
			return fmt.Errorf("engine %d: horizon support %d, want %d", i, got, want)
		}
		blocked := c.base[i] >= h && c.base[i] != never && h != never
		if c.blockedMark[i] != blocked {
			return fmt.Errorf("engine %d: blocked %v, want %v", i, c.blockedMark[i], blocked)
		}
		for _, e := range c.out[i] {
			want := never
			if o.bound[i] != never {
				want = o.bound[i] + e.lat
			}
			if c.prom[e.eid] != want {
				return fmt.Errorf("edge %d->%d: promise %v, want %v", i, e.peer, c.prom[e.eid], want)
			}
		}
	}
	return nil
}

// supports reports whether eid is an inbound link of engine i whose
// reference promise equals the horizon h.
func (o *fullRecompute) supports(c *Cluster, i int, eid int32, h units.Time) bool {
	for _, e := range c.in[i] {
		if e.eid == eid {
			return o.bound[e.peer] != never && o.bound[e.peer]+e.lat == h
		}
	}
	return false
}

// runner advances a fully built cluster to quiescence.
type runner func(t *testing.T, cl *Cluster)

// runWorkers drives a cluster through Run(workers).
func runWorkers(workers int) runner {
	return func(_ *testing.T, cl *Cluster) { cl.Run(workers) }
}

// runWithOracle drives cl to quiescence on the calling goroutine, round by
// round as Run(1) does, and after every round's incremental relaxation
// fails the test unless the coordinator's state equals a full recompute.
func runWithOracle(t *testing.T, cl *Cluster) {
	t.Helper()
	var o fullRecompute
	cl.prepare()
	for round := 1; ; round++ {
		cl.drain()
		cl.refreshBase()
		baseMin := cl.baseTree.root()
		if baseMin == never {
			return
		}
		cl.computeWindowsAppointment(baseMin)
		o.compute(cl, baseMin)
		if err := o.diff(cl, baseMin); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, i := range cl.runnable {
			cl.runEngine(int(i))
		}
		cl.accountRound()
	}
}

// trafficBuilder returns a cluster with a seeded workload registered but not
// yet run, plus the log that workload writes.
type trafficBuilder func(seed int64) (*Cluster, *ringLog)

// runTraffic builds a workload, attaches the invariant checker, drives it
// with drive, and returns the merged log and the run's stats. Any invariant
// violation fails the test: every builder models honest links.
func runTraffic(t *testing.T, build trafficBuilder, seed int64, drive runner) (string, ClusterStats) {
	t.Helper()
	cl, log := build(seed)
	chk := check.New()
	cl.AttachChecker(chk)
	drive(t, cl)
	if !chk.Ok() {
		t.Fatalf("seed=%d: honest model flagged: %v", seed, chk.Violations())
	}
	return log.merged(), cl.Stats()
}

// newOpenInboxTraffic mixes both mailbox kinds: a ring of attributed links
// with heterogeneous latencies, plus one unattributed Mailbox into device 0
// that every device posts to at the cluster lookahead. Device 0's bound and
// horizon are floored by the global window while the rest run on per-link
// promises.
func newOpenInboxTraffic(seed int64) (*Cluster, *ringLog) {
	const lookahead = units.Time(15)
	lats := []units.Time{15, 80, 30, 200, 15, 45}
	devs := len(lats)
	cl := NewCluster(devs, lookahead)
	log := &ringLog{perDev: make([][]string, devs)}
	ring := make([]*Mailbox, devs)
	for d := 0; d < devs; d++ {
		ring[d] = cl.LinkMailbox(d, (d+1)%devs, lats[d])
	}
	inbox := cl.Mailbox(0)
	rng := rand.New(rand.NewSource(seed))
	var burst func(dev, depth int) Handler
	burst = func(dev, depth int) Handler {
		eng := cl.Engine(dev)
		return func() {
			log.record(dev, eng.Now())
			if depth <= 0 {
				return
			}
			eng.After(units.Time(1+depth%5), func() { log.record(dev, eng.Now()) })
			if depth%3 == 0 {
				inbox.Post(eng.Now()+lookahead+units.Time(depth%7), burst(0, depth-1))
				return
			}
			ring[dev].Post(eng.Now()+lats[dev]+units.Time(depth%11), burst((dev+1)%devs, depth-1))
		}
	}
	for d := 1; d < devs; d += 2 {
		cl.Engine(d).At(units.Time(rng.Intn(30)), burst(d, 30))
	}
	return cl, log
}

// TestClusterRoundsMatchOracle is the per-round oracle for the incremental
// coordinator: on one workload per traffic generator — attributed torus and
// star graphs, an all-unattributed ring, a heterogeneous-latency link ring,
// and a mix of attributed links with an open inbox — every round's bounds,
// horizons, horizon supports, promises, blocked flags and runnable set must
// equal a from-scratch recompute.
func TestClusterRoundsMatchOracle(t *testing.T) {
	cases := []struct {
		name  string
		build trafficBuilder
	}{
		{"torus", newTorusTraffic},
		{"star", newStarTraffic},
		{"random", newRandomTraffic},
		{"linkRing", func(seed int64) (*Cluster, *ringLog) {
			return newLinkRing([]units.Time{20, 500, 45, 1000, 20, 170}, 20, 100+20*int(seed))
		}},
		{"openInbox", newOpenInboxTraffic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				log, st := runTraffic(t, tc.build, seed, runWithOracle)
				if log == "" || st.Windows == 0 {
					t.Fatalf("seed=%d: workload did not run (%d rounds)", seed, st.Windows)
				}
			}
		})
	}
}
