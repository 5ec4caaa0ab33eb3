package sim

import (
	"testing"

	"t3sim/internal/units"
)

// The engine benchmarks measure the two halves of the DES hot loop: pushing
// events into the calendar (BenchmarkEngineSchedule) and the full
// schedule+dispatch cycle (BenchmarkEngineRun), plus two self-rescheduling
// workloads: spread delays that stay in the heap (BenchmarkEngineRunCascade)
// and the DRAM delay mix the lanes serve (BenchmarkEngineRunDRAMMix). Run with
//
//	go test ./internal/sim -run='^$' -bench=BenchmarkEngine -benchmem
//
// EXPERIMENTS.md records the container/heap baseline, the value-based 4-ary
// heap and the delay-lane numbers; the target is zero steady-state
// allocations per scheduled event.

// benchSpread de-correlates timestamps so the heap sees realistic sift work
// rather than append-only FIFO behaviour. It is a fixed LCG, not wall-clock
// randomness, so every run benchmarks the identical event sequence.
func benchSpread(i int) units.Time {
	return units.Time((uint64(i)*6364136223846793005 + 1442695040888963407) % 100000)
}

func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	fn := Handler(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(benchSpread(i), fn)
	}
	b.StopTimer()
	e.Run()
}

func BenchmarkEngineRun(b *testing.B) {
	// Steady-state schedule+drain cycles: after the first iteration the
	// queue's backing array is warm, so allocs/op is the per-event cost.
	const events = 4096
	e := NewEngine()
	fn := Handler(func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < events; j++ {
			e.At(base+benchSpread(j), fn)
		}
		e.Run()
	}
	b.StopTimer()
	if e.Processed() != uint64(b.N)*events {
		b.Fatalf("processed %d events, want %d", e.Processed(), uint64(b.N)*events)
	}
}

// BenchmarkEngineRunCascade models the self-rescheduling handler chains the
// timing models actually produce (a DRAM channel or link re-arming itself),
// keeping a small live calendar with constant churn.
func BenchmarkEngineRunCascade(b *testing.B) {
	const chains = 64
	e := NewEngine()
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.After(units.Time(1+remaining%97), tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < chains; c++ {
		e.After(units.Time(c+1), tick)
	}
	e.Run()
}

// dramMix replays the delay mix a DRAM-bound fused run dispatches: 46% of
// events at a channel's 2 KiB service time (65,536 ps), 41% as read-latency
// fence completions (60,000 ps), 10% at the Update service time
// (131,072 ps) and 3% spread. Each chain keeps one event in flight, like a
// channel re-arming itself; a fixed LCG picks every delay, so each run
// dispatches the identical sequence.
type dramMix struct {
	e      *Engine
	left   int
	state  uint64
	chains []*dramChain
}

type dramChain struct {
	m     *dramMix
	tick  Handler
	fence *Fence
	armed bool // fence has been scheduled before, so it must be Reset
}

func newDRAMMix(e *Engine, chains int) *dramMix {
	m := &dramMix{e: e, state: 1}
	for i := 0; i < chains; i++ {
		c := &dramChain{m: m}
		c.tick = c.next
		c.fence = NewFence(1, c.tick)
		m.chains = append(m.chains, c)
	}
	return m
}

// run dispatches n more events across the chains and drains the engine.
func (m *dramMix) run(n int) {
	m.left = n
	for _, c := range m.chains {
		c.next()
	}
	m.e.Run()
}

func (c *dramChain) next() {
	m := c.m
	if m.left == 0 {
		return
	}
	m.left--
	m.state = m.state*6364136223846793005 + 1442695040888963407
	r := m.state >> 33
	switch p := r % 100; {
	case p < 46:
		m.e.After(65536, c.tick)
	case p < 87:
		if c.armed {
			c.fence.Reset(1)
		}
		c.armed = true
		m.e.AfterFence(60000, c.fence)
	case p < 97:
		m.e.After(131072, c.tick)
	default:
		m.e.After(units.Time(1+r%100000), c.tick)
	}
}

func BenchmarkEngineRunDRAMMix(b *testing.B) {
	m := newDRAMMix(NewEngine(), 64)
	m.run(1 << 14) // warm the lanes and the heap
	b.ReportAllocs()
	b.ResetTimer()
	m.run(b.N)
}
