package sim

import (
	"math/rand"
	"sort"
	"testing"

	"t3sim/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("end time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events ran out of insertion order: %v", order)
	}
}

func TestAfterAndClock(t *testing.T) {
	e := NewEngine()
	var at1, at2 units.Time
	e.After(100, func() {
		at1 = e.Now()
		e.After(50, func() { at2 = e.Now() })
	})
	e.Run()
	if at1 != 100 || at2 != 150 {
		t.Errorf("at1=%v at2=%v, want 100,150", at1, at2)
	}
	if e.Processed() != 2 {
		t.Errorf("Processed = %d, want 2", e.Processed())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 || e.Now() != 30 {
		t.Errorf("after Run: ran=%d now=%v", ran, e.Now())
	}
}

func TestRunUntilDrainExactlyAtDeadline(t *testing.T) {
	// The documented postcondition: events at exactly the deadline run —
	// including ones scheduled at the deadline by handlers firing at the
	// deadline — Processed() counts them, and Now() equals the deadline.
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() {
		ran++
		e.At(20, func() { ran++ }) // same-time cascade at the deadline
	})
	e.At(21, func() { ran++ })
	end := e.RunUntil(20)
	if end != 20 || e.Now() != 20 {
		t.Errorf("clock = %v/%v, want 20 (clock-equals-deadline postcondition)", end, e.Now())
	}
	if ran != 3 {
		t.Errorf("ran = %d, want 3 (deadline event and its same-time cascade)", ran)
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (only the post-deadline event)", e.Pending())
	}
	e.Run()
	if ran != 4 || e.Processed() != 4 || e.Now() != 21 {
		t.Errorf("after Run: ran=%d processed=%d now=%v", ran, e.Processed(), e.Now())
	}
}

func TestProcessedVisibleInsideHandler(t *testing.T) {
	e := NewEngine()
	var during uint64
	e.At(5, func() { during = e.Processed() })
	e.Run()
	if during != 1 {
		t.Errorf("Processed inside handler = %d, want 1 (counts the running event)", during)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("Now = %v, want 500", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil handler")
		}
	}()
	e.At(1, nil)
}

func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var times []units.Time
	for i := 0; i < 2000; i++ {
		at := units.Time(rng.Intn(10000))
		e.At(at, func() { times = append(times, e.Now()) })
	}
	e.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time went backwards at %d: %v < %v", i, times[i], times[i-1])
		}
	}
	if len(times) != 2000 {
		t.Errorf("executed %d events, want 2000", len(times))
	}
}

func TestRandomizedInterleavedScheduling(t *testing.T) {
	// Exercises the heap under DES-realistic interleaving: handlers keep
	// scheduling new events while the queue drains, so push and pop mix
	// instead of the push-all-then-drain pattern of TestRandomizedOrdering.
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	var times []units.Time
	var seed func(budget int) Handler
	seed = func(budget int) Handler {
		return func() {
			times = append(times, e.Now())
			for f := 0; f < budget; f++ {
				e.After(units.Time(rng.Intn(50)), seed(rng.Intn(budget)))
			}
		}
	}
	for i := 0; i < 64; i++ {
		e.At(units.Time(rng.Intn(1000)), seed(3))
	}
	e.Run()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("time went backwards at %d: %v < %v", i, times[i], times[i-1])
		}
	}
	if uint64(len(times)) != e.Processed() {
		t.Errorf("observed %d events, Processed() = %d", len(times), e.Processed())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestFence(t *testing.T) {
	fired := 0
	f := NewFence(3, func() { fired++ })
	f.Done()
	f.Done()
	if f.Fired() {
		t.Error("fence fired early")
	}
	f.Done()
	if fired != 1 || !f.Fired() {
		t.Errorf("fired=%d Fired=%v, want 1,true", fired, f.Fired())
	}
}

func TestFenceZero(t *testing.T) {
	fired := false
	NewFence(0, func() { fired = true })
	if !fired {
		t.Error("zero fence should fire immediately")
	}
}

func TestFenceAdd(t *testing.T) {
	fired := false
	f := NewFence(1, func() { fired = true })
	f.Add(1)
	f.Done()
	if fired {
		t.Error("fired before all completions")
	}
	if f.Remaining() != 1 {
		t.Errorf("Remaining = %d, want 1", f.Remaining())
	}
	f.Done()
	if !fired {
		t.Error("did not fire after all completions")
	}
}

func TestFenceMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative", func() { NewFence(-1, nil) })
	f := NewFence(1, nil)
	f.Done()
	mustPanic("over-complete", func() { f.Done() })
	mustPanic("add-after-fire", func() { f.Add(1) })
	f2 := NewFence(2, nil)
	mustPanic("negative-add", func() { f2.Add(-1) })
}

// TestEngineDRAMMixAllocFree pins the delay-lane calendar's steady state: a
// warm engine dispatching the DRAM delay mix allocates nothing per event,
// whichever of lanes and heap each event lands in.
func TestEngineDRAMMixAllocFree(t *testing.T) {
	m := newDRAMMix(NewEngine(), 64)
	m.run(1 << 14)
	const events = 4096
	before := m.e.Processed()
	allocs := testing.AllocsPerRun(5, func() { m.run(events) })
	if allocs != 0 {
		t.Fatalf("%.1f allocs per %d-event run, want 0", allocs, events)
	}
	if got := m.e.Processed() - before; got != 6*events {
		t.Fatalf("processed %d events, want %d", got, 6*events)
	}
	if m.e.laneMask != 0 || m.e.lanes[laneSlot(65536)].delay != 65536 {
		t.Fatalf("lanes not drained (mask %b) or 65,536 ps not admitted", m.e.laneMask)
	}
}
