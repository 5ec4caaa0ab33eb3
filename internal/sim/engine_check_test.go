package sim

import (
	"strings"
	"testing"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// TestEngineCheckerCleanRun pins that a healthy dispatch sequence records no
// violations.
func TestEngineCheckerCleanRun(t *testing.T) {
	c := check.New()
	e := NewEngine()
	e.AttachChecker(c)
	for i := 0; i < 100; i++ {
		d := (i * 37) % 50
		e.At(units.Time(d), func() {})
	}
	e.Run()
	if err := c.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// TestEngineCheckerCatchesHeapCorruption is the engine's ordering law made
// falsifiable: we corrupt the event calendar behind the engine's back (white
// box — this cannot happen through the public API, which panics on
// past-scheduling) and assert the monotonicity witness flags the backwards
// dispatch instead of letting the simulation silently reorder. Each half of
// the calendar gets its own corruption: two heap entries, and two entries of
// one delay lane.
func TestEngineCheckerCatchesHeapCorruption(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		e, c := NewEngine(), check.New()
		e.AttachChecker(c)
		e.At(10, func() {})
		e.At(20, func() {})
		if e.laneMask != 0 || len(e.queue) != 2 {
			t.Fatalf("events not in the heap: lane mask %b, heap %d", e.laneMask, len(e.queue))
		}
		// Swap the heap entries so the t=20 event dispatches first and the
		// clock then jumps back to t=10.
		e.queue[0], e.queue[1] = e.queue[1], e.queue[0]
		requireBackwardsDispatch(t, e, c)
	})
	t.Run("lane", func(t *testing.T) {
		e, c := NewEngine(), check.New()
		e.AttachChecker(c)
		// Enough schedules of one delay to admit it, then one more from a
		// later clock, so the lane holds events at t=101 and t=102.
		const d = 100
		e.RunUntil(1)
		for i := 0; i < admitHits+1; i++ {
			e.After(d, func() {})
		}
		e.RunUntil(2)
		e.After(d, func() {})
		l := &e.lanes[laneSlot(d)]
		if l.delay != d || l.n < 2 {
			t.Fatalf("delay %d not lane-resident: lane owns %d with %d events", d, l.delay, l.n)
		}
		// Swap the lane's first and last entries so the t=102 event
		// dispatches ahead of a t=101 one.
		first, last := l.first, (l.first+l.n-1)&(len(l.buf)-1)
		l.buf[first], l.buf[last] = l.buf[last], l.buf[first]
		requireBackwardsDispatch(t, e, c)
	})
}

// requireBackwardsDispatch runs a corrupted engine and requires the checker
// to report exactly the engine's monotonicity law.
func requireBackwardsDispatch(t *testing.T, e *Engine, c *check.Checker) {
	t.Helper()
	func() {
		defer func() { recover() }() // At() may panic once now has advanced past a pending event
		e.Run()
	}()
	if c.Ok() {
		t.Fatal("checker missed a time-reversed dispatch")
	}
	vs := c.Violations()
	if vs[0].Rule != "ordering/monotonic" {
		t.Fatalf("rule = %q, want ordering/monotonic", vs[0].Rule)
	}
	if vs[0].Path != "sim.engine" {
		t.Fatalf("path = %q, want sim.engine", vs[0].Path)
	}
	if !strings.Contains(vs[0].String(), "backwards") {
		t.Fatalf("violation message %q does not mention backwards time", vs[0])
	}
}
