package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"t3sim/internal/units"
)

// heapEngine is the reference calendar the delay-lane Engine replaced: every
// event sifts through one value-based 4-ary min-heap ordered by (time, seq).
// It has no lanes and no cached head, so it is the oracle for the Engine's
// dispatch order and for its Pending/Processed/NextAt bookkeeping.
type heapEngine struct {
	now       units.Time
	seq       uint64
	queue     []event
	processed uint64
}

func (e *heapEngine) Now() units.Time   { return e.now }
func (e *heapEngine) Processed() uint64 { return e.processed }
func (e *heapEngine) Pending() int      { return len(e.queue) }

func (e *heapEngine) At(t units.Time, fn Handler) {
	if t < e.now {
		panic(fmt.Sprintf("oracle: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

func (e *heapEngine) After(d units.Time, fn Handler) { e.At(e.now+d, fn) }

func (e *heapEngine) AfterFence(d units.Time, f *Fence) {
	e.seq++
	e.push(event{at: e.now + d, seq: e.seq, fence: f})
}

func (e *heapEngine) Run() units.Time {
	for len(e.queue) > 0 {
		e.step()
	}
	return e.now
}

func (e *heapEngine) RunUntil(deadline units.Time) units.Time {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.step()
	}
	e.now = deadline
	return e.now
}

func (e *heapEngine) RunBefore(deadline units.Time) units.Time {
	for len(e.queue) > 0 && e.queue[0].at < deadline {
		e.step()
	}
	e.now = deadline
	return e.now
}

func (e *heapEngine) NextAt() (units.Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

func (e *heapEngine) step() {
	ev := e.pop()
	e.now = ev.at
	e.processed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.fence.Done()
	}
}

func (e *heapEngine) push(ev event) {
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

func (e *heapEngine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	if n > 0 {
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
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

// calendar is the surface the program driver exercises on both engines.
type calendar interface {
	Now() units.Time
	Processed() uint64
	Pending() int
	At(units.Time, Handler)
	After(units.Time, Handler)
	AfterFence(units.Time, *Fence)
	Run() units.Time
	RunUntil(units.Time) units.Time
	RunBefore(units.Time) units.Time
	NextAt() (units.Time, bool)
}

// dispatch is one fired event: when it fired, the schedule ordinal that
// created it (the engine's seq) and what kind of handler it was.
type dispatch struct {
	at   units.Time
	seq  uint64
	kind byte
}

// Delay classes of a calendar program. The hot delays are the three that
// dominate a DRAM-bound run; the repeating set has more distinct delays than
// the Engine has lanes, so admitted delays contend for slots and recycle
// them after draining.
var (
	hotDelays       = [...]units.Time{65536, 60000, 131072}
	repeatingDelays = [...]units.Time{1000, 2000, 3000, 4500, 7000, 9999, 12000, 20000, 30000, 40000, 50000, 64000}
)

// programBudget caps the events one program may schedule, so every input
// terminates however its handlers fan out.
const programBudget = 3000

// calendarDriver interprets a byte program against one calendar. Top-level
// ops and fired handlers both consume bytes from the same cursor, so two
// calendars that dispatch identically consume identical bytes.
type calendarDriver struct {
	cal       calendar
	prog      []byte
	pos       int
	scheduled uint64
	log       []dispatch
}

func (d *calendarDriver) next() byte {
	if d.pos >= len(d.prog) {
		return 0
	}
	b := d.prog[d.pos]
	d.pos++
	return b
}

func (d *calendarDriver) delay() units.Time {
	switch b := d.next(); b % 8 {
	case 0, 1, 2:
		return hotDelays[int(b/8)%len(hotDelays)]
	case 3:
		return 0
	case 4:
		return units.Time(d.next())<<8 | units.Time(d.next()) + 1 // spread
	default:
		return repeatingDelays[int(b/8)%len(repeatingDelays)]
	}
}

// schedule creates one event with delay dl through At, After or AfterFence.
func (d *calendarDriver) schedule(how byte, dl units.Time) {
	if d.scheduled >= programBudget {
		return
	}
	d.scheduled++
	seq := d.scheduled
	switch how % 3 {
	case 0:
		d.cal.After(dl, d.handler(seq, 'a'))
	case 1:
		d.cal.At(d.cal.Now()+dl, d.handler(seq, 't'))
	default:
		d.cal.AfterFence(dl, NewFence(1, d.handler(seq, 'f')))
	}
}

// handler logs its dispatch, then schedules zero to two children.
func (d *calendarDriver) handler(seq uint64, kind byte) Handler {
	return func() {
		d.log = append(d.log, dispatch{at: d.cal.Now(), seq: seq, kind: kind})
		for n := d.next() % 3; n > 0; n-- {
			d.schedule(d.next(), d.delay())
		}
	}
}

// op runs one top-level operation and reports its name.
func (d *calendarDriver) op() string {
	switch b := d.next(); b % 8 {
	case 0, 1, 2:
		d.schedule(b/8, d.delay())
		return "schedule"
	case 3:
		// A burst with one delay: the pattern that earns a lane.
		dl := d.delay()
		for n := 2 + int(b/8)%14; n > 0; n-- {
			d.schedule(d.next(), dl)
		}
		return "burst"
	case 4:
		d.cal.Run()
		return "Run"
	case 5:
		d.cal.RunUntil(d.cal.Now() + d.delay())
		return "RunUntil"
	case 6:
		d.cal.RunBefore(d.cal.Now() + d.delay())
		return "RunBefore"
	default:
		// Deadlines exactly at the next event exercise the <= / < boundary.
		if at, ok := d.cal.NextAt(); ok {
			if b/8%2 == 0 {
				d.cal.RunUntil(at)
			} else {
				d.cal.RunBefore(at)
			}
		}
		return "RunToNext"
	}
}

// checkCalendarProgram runs prog on a fresh Engine and on the heap oracle in
// lockstep and fails at the first divergence in dispatch order or in the
// observable calendar state after any top-level op. observe, when non-nil,
// sees the Engine after every op.
func checkCalendarProgram(t *testing.T, prog []byte, observe func(*Engine)) {
	t.Helper()
	eng := NewEngine()
	got := &calendarDriver{cal: eng, prog: prog}
	want := &calendarDriver{cal: &heapEngine{}, prog: prog}
	matched := 0 // dispatches already found equal
	for step := 0; got.pos < len(prog); step++ {
		name := got.op()
		if wname := want.op(); wname != name {
			t.Fatalf("step %d: op %s on engine but %s on oracle", step, name, wname)
		}
		compareCalendars(t, fmt.Sprintf("step %d (%s)", step, name), got, want, &matched)
		if observe != nil {
			observe(eng)
		}
	}
	got.cal.Run()
	want.cal.Run()
	compareCalendars(t, "final Run", got, want, &matched)
}

// compareCalendars checks the dispatches after the first *matched (which
// earlier calls found equal) and the calendars' observable state.
func compareCalendars(t *testing.T, where string, got, want *calendarDriver, matched *int) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("%s: %d dispatches, oracle %d", where, len(got.log), len(want.log))
	}
	for i := *matched; i < len(got.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("%s: dispatch %d = %+v, oracle %+v", where, i, got.log[i], want.log[i])
		}
	}
	*matched = len(got.log)
	if g, w := got.cal.Processed(), want.cal.Processed(); g != w {
		t.Fatalf("%s: Processed %d, oracle %d", where, g, w)
	}
	if g, w := got.cal.Pending(), want.cal.Pending(); g != w {
		t.Fatalf("%s: Pending %d, oracle %d", where, g, w)
	}
	if g, w := got.cal.Now(), want.cal.Now(); g != w {
		t.Fatalf("%s: Now %v, oracle %v", where, g, w)
	}
	gAt, gOk := got.cal.NextAt()
	wAt, wOk := want.cal.NextAt()
	if gAt != wAt || gOk != wOk {
		t.Fatalf("%s: NextAt (%v, %v), oracle (%v, %v)", where, gAt, gOk, wAt, wOk)
	}
}

// TestEngineMatchesHeapOracle drives the delay-lane Engine and the heap-only
// oracle with random programs and requires identical dispatch. It also
// checks that the programs reach the lane paths the equivalence depends on:
// events in lanes and in the heap, and lane slots handed to a second delay
// after draining.
func TestEngineMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var laneEvents, heapEvents, recycled int
	for trial := 0; trial < 200; trial++ {
		prog := make([]byte, 64+rng.Intn(1024))
		rng.Read(prog)
		owners := make([]map[units.Time]bool, laneCount)
		for i := range owners {
			owners[i] = map[units.Time]bool{}
		}
		checkCalendarProgram(t, prog, func(e *Engine) {
			for i := range e.lanes {
				l := &e.lanes[i]
				if l.buf != nil {
					owners[i][l.delay] = true
				}
				laneEvents += l.n
			}
			heapEvents += len(e.queue)
		})
		for _, o := range owners {
			if len(o) > 1 {
				recycled++
			}
		}
	}
	t.Logf("lane-resident %d, heap-resident %d, recycled slots %d", laneEvents, heapEvents, recycled)
	if laneEvents == 0 || heapEvents == 0 || recycled == 0 {
		t.Fatalf("programs missed a calendar path: lane-resident %d, heap-resident %d, recycled slots %d",
			laneEvents, heapEvents, recycled)
	}
}

// FuzzEngineCalendar is the open-ended form of TestEngineMatchesHeapOracle:
// any byte program must dispatch identically on the Engine and the oracle.
// testdata/fuzz/FuzzEngineCalendar holds the checked-in seed corpus.
func FuzzEngineCalendar(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 3, 8, 1, 1, 1, 1, 4, 5, 2, 6, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkCalendarProgram(t, prog, nil)
	})
}
