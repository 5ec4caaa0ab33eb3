// Package sim provides the discrete-event simulation kernel that every timed
// model in this repository (DRAM, interconnect, GPU pipelines, the T3
// tracker) runs on. It is a classic event-calendar design: callbacks are
// scheduled at absolute picosecond timestamps and executed in (time,
// insertion-order) order, which makes simulations fully deterministic.
//
// An Engine is strictly single-goroutine: all model code runs inside event
// handlers on the goroutine that calls Run/RunUntil, and an Engine must never
// be shared across goroutines. Concurrency lives one level up — independent
// simulations each own a private Engine and may run on separate goroutines
// (see internal/experiments.Evaluator.EvaluateAll).
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"t3sim/internal/check"
	"t3sim/internal/units"
)

// Handler is a callback executed when its event fires. The engine's clock
// already equals the event time when the handler runs.
type Handler func()

type event struct {
	at  units.Time
	seq uint64 // insertion order; breaks ties deterministically
	fn  Handler
	// fence, when fn is nil, is completed (Done) instead of calling a
	// handler. Carrying the fence in the event lets hot paths schedule a
	// deferred completion without allocating a method-value closure for
	// fence.Done on every request (see Engine.AfterFence).
	fence *Fence
}

// before reports whether e fires ahead of o under the deterministic
// (time, insertion-seq) ordering contract.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// The event calendar has two parts, and the event that dispatches next is
// the (time, seq) minimum across both:
//
//   - Delay lanes. Timing models re-arm themselves with a few fixed delays
//     (a DRAM channel's service time, its read-latency fence), and those
//     dominate dispatch. Every event scheduled with one delay d fires at
//     now+d; the clock never runs backwards and seq only grows, so such
//     events arrive already in (time, seq) order and a FIFO ring serves
//     them with no sifting. Lane slots are direct-mapped by delay. A delay
//     is admitted to its slot only after admitHits consecutive schedules
//     that miss the slot's owner, and only while the slot is empty, so
//     one-off delays never hold a lane. The pop-side scan visits non-empty
//     lanes only (laneMask). Rings are allocated on first admission and
//     reused for the engine's lifetime.
//   - A value-based quaternary (4-ary) min-heap stored directly in a slice
//     for every other event: no per-event pointer allocation and no
//     interface boxing on push/pop, so steady-state scheduling costs zero
//     allocations (the backing array is reused across drain cycles). The
//     4-ary layout (children of i at 4i+1..4i+4) halves tree depth versus a
//     binary heap, trading a wider sibling scan — two cache lines for
//     32-byte events — for fewer cache-missing levels on sift-down.
//
// While every lane is empty the heap top is the next event, so a run that
// admits no delay pays only a slot probe per schedule and a mask test per
// dispatch over a heap-only calendar.
const (
	heapArity = 4
	laneBits  = 3
	laneCount = 1 << laneBits // the width of Engine.laneMask
	admitHits = 4
	// laneMinCap is a ring's capacity on first admission; rings double when
	// full and stay a power of two so indices wrap with a mask.
	laneMinCap = 16
	// fromHeap names the heap as an event's source; 0..laneCount-1 name a
	// lane.
	fromHeap = -1
)

// lane is one delay slot: the owning delay's FIFO ring plus the slot's
// admission state.
type lane struct {
	buf   []event // power-of-two ring; nil until a delay is first admitted
	first int     // ring index of the earliest queued event
	n     int     // queued events
	delay units.Time
	cand  units.Time // delay bidding for the slot
	hits  int        // consecutive schedules of cand that missed the owner
}

// laneSlot maps a delay to its lane slot by Fibonacci hashing: the top bits
// of d·2^64/φ spread the round and power-of-two delays timing models use.
func laneSlot(d units.Time) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneBits))
}

func (l *lane) push(ev event) {
	if l.n == len(l.buf) {
		grown := make([]event, 2*len(l.buf))
		for i := 0; i < l.n; i++ {
			grown[i] = l.buf[(l.first+i)&(len(l.buf)-1)]
		}
		l.buf, l.first = grown, 0
	}
	l.buf[(l.first+l.n)&(len(l.buf)-1)] = ev
	l.n++
}

func (l *lane) pop() event {
	ev := l.buf[l.first]
	l.buf[l.first] = event{} // drop the Handler reference so the GC can reclaim it
	l.first = (l.first + 1) & (len(l.buf) - 1)
	l.n--
	return ev
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// ready to use. Engines are not safe for concurrent use; all model code runs
// inside event handlers on one goroutine.
type Engine struct {
	now       units.Time
	seq       uint64
	queue     []event // 4-ary heap of the events no lane holds
	laneMask  uint8   // bit i set while lanes[i] is non-empty
	processed uint64
	mono      *check.Monotonic // event-time monotonicity witness (nil = off)
	lanes     [laneCount]lane
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// AttachChecker registers an invariant checker that witnesses every
// dispatched event's timestamp: the event clock must never run backwards,
// regardless of how the calendar is mutated. A nil checker detaches (the
// dispatch loop then pays a single nil-handle branch per event).
func (e *Engine) AttachChecker(c *check.Checker) {
	e.mono = c.Monotonic("sim.engine")
}

// Now returns the current simulation time.
func (e *Engine) Now() units.Time { return e.now }

// Processed returns the number of events executed so far. The count is
// advanced before a handler runs, so inside a handler it includes the event
// currently executing; after Run or RunUntil returns it equals exactly the
// number of handlers that fired.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled events not yet executed.
func (e *Engine) Pending() int {
	n := len(e.queue)
	for m := e.laneMask; m != 0; m &= m - 1 {
		n += e.lanes[bits.TrailingZeros8(m)].n
	}
	return n
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug.
func (e *Engine) At(t units.Time, fn Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn}, t-e.now)
}

// After schedules fn to run d after the current time. Negative delays panic.
func (e *Engine) After(d units.Time, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// AfterFence schedules one completion (Done) on f at d after the current
// time. It is equivalent to After(d, f.Done) — same position in the
// deterministic (time, insertion-seq) event order — but stores the fence
// pointer in the event itself, so no method-value closure is allocated.
// Negative delays and nil fences panic.
func (e *Engine) AfterFence(d units.Time, f *Fence) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	if f == nil {
		panic("sim: scheduling nil fence")
	}
	e.seq++
	e.push(event{at: e.now + d, seq: e.seq, fence: f}, d)
}

// Run executes events until the queue is empty and returns the final clock
// value.
func (e *Engine) Run() units.Time {
	for {
		src, _, ok := e.next()
		if !ok {
			return e.now
		}
		e.step(src)
	}
}

// RunUntil executes events with timestamps <= deadline, including events
// that handlers schedule at the deadline itself while draining.
//
// Postcondition: Now() == deadline exactly (even when the queue drains early
// or the last event fires exactly at the deadline), Processed() counts every
// handler that fired, and Pending() holds only events strictly after the
// deadline.
func (e *Engine) RunUntil(deadline units.Time) units.Time {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", deadline, e.now))
	}
	for {
		src, at, ok := e.next()
		if !ok || at > deadline {
			break
		}
		e.step(src)
	}
	e.now = deadline
	return e.now
}

// RunBefore executes events with timestamps strictly before deadline,
// including events that handlers schedule inside the window while draining,
// then advances the clock to the deadline. It is the conservative-window
// primitive of Cluster: after RunBefore(D) returns, every remaining event —
// and every event this engine can ever schedule from here on — fires at or
// after D, so a coordinator may safely inject cross-engine deliveries
// timestamped >= D before the next window.
//
// Postcondition: Now() == deadline, and Pending() holds only events at or
// after the deadline.
func (e *Engine) RunBefore(deadline units.Time) units.Time {
	if deadline < e.now {
		panic(fmt.Sprintf("sim: RunBefore(%v) before now %v", deadline, e.now))
	}
	for {
		src, at, ok := e.next()
		if !ok || at >= deadline {
			break
		}
		e.step(src)
	}
	e.now = deadline
	return e.now
}

// NextAt returns the earliest pending event's timestamp, or false when the
// queue is empty. Cluster uses it to compute the global window horizon.
func (e *Engine) NextAt() (units.Time, bool) {
	_, at, ok := e.next()
	return at, ok
}

// next locates the earliest pending event: its source (fromHeap or a lane)
// and its time; ok is false when nothing is pending.
func (e *Engine) next() (src int, at units.Time, ok bool) {
	if e.laneMask == 0 && len(e.queue) > 0 {
		return fromHeap, e.queue[0].at, true
	}
	return e.nextAcrossLanes()
}

// nextAcrossLanes is next when the heap alone does not decide: the heap top
// against the first event of every non-empty lane, by (time, seq).
func (e *Engine) nextAcrossLanes() (int, units.Time, bool) {
	src, at, seq := fromHeap, units.Time(math.MaxInt64), uint64(math.MaxUint64)
	if len(e.queue) > 0 {
		at, seq = e.queue[0].at, e.queue[0].seq
	} else if e.laneMask == 0 {
		return fromHeap, 0, false
	}
	for m := e.laneMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		l := &e.lanes[i]
		if ev := &l.buf[l.first]; ev.at < at || ev.at == at && ev.seq < seq {
			src, at, seq = i, ev.at, ev.seq
		}
	}
	return src, at, true
}

// step pops the earliest event from src, as next located it, and runs it.
func (e *Engine) step(src int) {
	var ev event
	if src == fromHeap {
		ev = e.popHeap()
	} else {
		l := &e.lanes[src]
		ev = l.pop()
		if l.n == 0 {
			e.laneMask &^= 1 << src
		}
	}
	e.mono.Observe(ev.at)
	e.now = ev.at
	e.processed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.fence.Done()
	}
}

// push files ev, scheduled d after now, into d's lane when d owns or wins
// its slot, and into the heap otherwise.
func (e *Engine) push(ev event, d units.Time) {
	s := laneSlot(d)
	l := &e.lanes[s]
	if l.delay == d && l.buf != nil {
		l.hits = 0 // an owner hit ends any rival's streak
	} else if !l.admit(d) {
		e.pushHeap(ev)
		return
	}
	l.push(ev)
	e.laneMask |= 1 << s
}

// admit records a schedule of d that missed the slot's owner and reports
// whether d has just taken the slot over.
func (l *lane) admit(d units.Time) bool {
	if l.cand != d {
		l.cand, l.hits = d, 1
		return false
	}
	l.hits++
	if l.hits < admitHits || l.n != 0 {
		return false
	}
	if l.buf == nil {
		l.buf = make([]event, laneMinCap)
	}
	l.delay, l.hits = d, 0
	return true
}

// pushHeap inserts ev into the heap, sifting it up toward the root.
func (e *Engine) pushHeap(ev event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.queue = q
}

// popHeap removes and returns the heap's earliest event, sifting the
// displaced last element down through the hole it leaves at the root.
func (e *Engine) popHeap() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the Handler reference so the GC can reclaim it
	if n > 0 {
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			// Pick the earliest of up to four siblings.
			min := c
			end := c + heapArity
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if q[j].before(q[min]) {
					min = j
				}
			}
			if !q[min].before(last) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = last
	}
	e.queue = q[:n]
	return top
}
