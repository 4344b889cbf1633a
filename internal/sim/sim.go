//go:build go1.23

// Package sim implements a deterministic execution-driven simulation engine.
//
// The engine advances a single global clock over two kinds of actors:
//
//   - Events: closures scheduled at an absolute cycle. Protocol machinery
//     (update deliveries, acks, write-buffer drains) runs as events. Events
//     live in a pooled, free-listed arena indexed by a 4-ary min-heap, so
//     scheduling and firing are allocation-free in steady state.
//   - Processors: coroutines (iter.Pull) executing real application code.
//     Each processor has a local clock that advances as the application
//     "computes"; whenever the application touches the simulated memory
//     system or synchronizes, the processor suspends back to the engine and
//     a service closure runs on its behalf in exclusive engine context.
//
// The engine loop resumes one processor coroutine at a time and waits until
// it suspends again, so at any instant exactly one of them (or the engine)
// executes, and every switch is a direct coroutine transfer with no trip
// through the goroutine scheduler. Runs are therefore race-free and
// bit-deterministic: the engine always picks the action with the smallest
// timestamp, breaking ties by (events first, then lowest processor ID).
//
// Two structures keep the pick cheap: the event heap exposes the earliest
// event in O(1), and runnable processors sit in an indexed min-heap keyed by
// (clock, ID), updated incrementally as they change state. See DESIGN.md,
// "Engine internals".
package sim

import (
	"fmt"
	"iter"
)

// interruptEvery is how many scheduler actions pass between Interrupt polls:
// off the per-event hot path often enough to stay cheap, while still
// bounding abort latency to a few thousand events.
const interruptEvery = 1024

// abortSignal is panicked through app code to unwind a processor coroutine
// that the engine stops during an abort. It never escapes the package.
type abortSignal struct{}

// Time is a simulation timestamp in processor cycles (pcycles).
type Time int64

// Forever is a timestamp larger than any reachable simulation time.
const Forever Time = 1<<62 - 1

// event is one arena slot: a scheduled closure, or a scheduled two-argument
// bound function (ScheduleArgs) that lets hot callers avoid allocating a
// fresh closure per event.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	afn    func(a0, a1 int64)
	a0, a1 int64
}

// procState tracks where a processor is in the engine handoff protocol.
type procState int

const (
	procIdle    procState = iota // not yet started
	procRunning                  // executing app code; engine is suspended in its resume
	procService                  // yielded with a pending service closure
	procResume                   // service finished; waiting to be resumed at clock
	procBlocked                  // waiting for an external WakeAt
	procDone                     // app function returned
)

// Proc is one simulated processor context.
type Proc struct {
	ID    int
	eng   *Engine
	clock Time
	state procState
	qi    int32 // index in the engine's runnable heap; -1 when absent

	svc func() // pending service, run in engine context at clock

	// The processor's coroutine: next resumes it on the calling goroutine
	// until it suspends (ok false once the app function has returned), stop
	// unwinds it, and yield — valid only inside it — suspends it.
	next  func() (yieldKind, bool)
	stop  func()
	yield func(yieldKind) bool

	yieldFn func() // cached Yield service closure
}

// yieldKind tells the resumer why a processor coroutine suspended.
type yieldKind int

const (
	// yieldService leaves a pending service in Proc.svc.
	yieldService yieldKind = iota
	// yieldParked hands control back from Park, with the proc's state and
	// runnable-heap membership already current.
	yieldParked
)

// Engine drives the simulation.
type Engine struct {
	// Interrupt, when non-nil, is polled periodically from the scheduler
	// loop; returning a non-nil error aborts the run with that error. Wire
	// a context.Context's Err method here for cancellation and timeouts.
	// Polling never runs between a processor's service and its resume, so
	// an Interrupt that never fires cannot perturb the simulated timeline.
	Interrupt func() error

	now   Time
	seq   uint64
	iters uint64 // scheduled actions since Run, for Interrupt batching

	// Event storage: arena slots recycled through a free list, with a 4-ary
	// min-heap of arena indices ordered by (at, seq).
	arena []event
	free  []int32
	eheap []int32

	// runq is the indexed min-heap of runnable processors (state procService
	// or procResume), keyed by (clock, ID); Proc.qi tracks positions.
	runq []*Proc

	procs  []*Proc
	live   int
	failed error

	counts Counts
}

// Counts tallies the engine's own work over a run. Like the run's results
// they are a pure function of its inputs; they say how the engine got there.
type Counts struct {
	// Resumes counts the engine loop's switches into a processor coroutine:
	// one per processor start plus one per service, since every Invoke
	// suspends the processor.
	Resumes uint64
	// Events counts fired events.
	Events uint64
}

// Counts returns the engine's counters so far.
func (e *Engine) Counts() Counts { return e.counts }

// NewEngine creates an engine with n processor contexts.
func NewEngine(n int) *Engine {
	e := &Engine{}
	e.procs = make([]*Proc, n)
	for i := range e.procs {
		e.procs[i] = &Proc{ID: i, eng: e, qi: -1}
	}
	return e
}

// Now returns the current global simulation time.
func (e *Engine) Now() Time { return e.now }

// MaxClock returns the run's wall-clock envelope: the maximum of the global
// clock and every processor's local clock. Fast-path and functional-warmup
// execution let a processor's clock run ahead of fired events, so the
// envelope — not Now — is the meaningful "time so far" when measurement
// checkpoints are taken from app context.
func (e *Engine) MaxClock() Time {
	t := e.now
	for _, p := range e.procs {
		if p.clock > t {
			t = p.clock
		}
	}
	return t
}

// SumClock returns the sum of every processor's local clock: P times the
// machine's average per-processor progress. Unlike MaxClock it is immune to
// the clock skew functional-warmup bursts create (one processor running far
// ahead while the rest are parked), so deltas of SumClock are the robust
// cycle measure for sampled-execution intervals.
func (e *Engine) SumClock() Time {
	var t Time
	for _, p := range e.procs {
		t += p.clock
	}
	return t
}

// CheckCancel polls the Interrupt hook immediately (no action batching) and
// reports whether the run has failed. Safe to call from app code under engine
// exclusivity; long functional-warmup stretches poll it so cancellation does
// not wait for the next engine handoff.
func (e *Engine) CheckCancel() bool {
	if e.failed == nil && e.Interrupt != nil {
		if err := e.Interrupt(); err != nil {
			e.fail(fmt.Errorf("sim: interrupted at cycle %d: %w", e.now, err))
		}
	}
	return e.failed != nil
}

// Procs returns the engine's processor contexts.
func (e *Engine) Procs() []*Proc { return e.procs }

// ---- Event heap --------------------------------------------------------

// evLess orders arena slots by (at, seq): time order, scheduling order
// within a cycle.
func (e *Engine) evLess(i, j int32) bool {
	a, b := &e.arena[i], &e.arena[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (e *Engine) evPush(idx int32) {
	h := append(e.eheap, idx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.evLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.eheap = h
}

func (e *Engine) evPopMin() int32 {
	h := e.eheap
	min := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	e.eheap = h
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.evLess(h[c], h[best]) {
				best = c
			}
		}
		if !e.evLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return min
}

// Schedule registers fn to run in engine context at time at. Scheduling in
// the past is an error that aborts the run.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, fn, nil, 0, 0)
}

// ScheduleArgs registers fn(a0, a1) to run in engine context at time at.
// It is Schedule for hot paths: a caller that binds fn once (a stored method
// value) and passes its per-event data as arguments schedules events without
// allocating a closure per call.
func (e *Engine) ScheduleArgs(at Time, fn func(a0, a1 int64), a0, a1 int64) {
	e.schedule(at, nil, fn, a0, a1)
}

func (e *Engine) schedule(at Time, fn func(), afn func(a0, a1 int64), a0, a1 int64) {
	if at < e.now {
		e.fail(fmt.Errorf("sim: schedule at %d before now %d", at, e.now))
		at = e.now
	}
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	ev := &e.arena[idx]
	ev.at, ev.seq, ev.fn, ev.afn, ev.a0, ev.a1 = at, e.seq, fn, afn, a0, a1
	e.evPush(idx)
}

// fireNext pops the earliest pending event, advances the clock to it,
// recycles its arena slot, and runs it. The caller must have checked that an
// event is pending.
func (e *Engine) fireNext() {
	idx := e.evPopMin()
	ev := &e.arena[idx]
	at, fn, afn, a0, a1 := ev.at, ev.fn, ev.afn, ev.a0, ev.a1
	ev.fn, ev.afn = nil, nil
	e.free = append(e.free, idx)
	e.now = at
	e.counts.Events++
	if afn != nil {
		afn(a0, a1)
		return
	}
	fn()
}

// ---- Runnable-processor heap -------------------------------------------

// procLess is the scheduler tie-break for processors: earliest clock, then
// lowest ID.
func procLess(a, b *Proc) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.ID < b.ID)
}

func (e *Engine) runqUp(i int) {
	q := e.runq
	p := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !procLess(p, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].qi = int32(i)
		i = parent
	}
	q[i] = p
	p.qi = int32(i)
}

func (e *Engine) runqDown(i int) {
	q := e.runq
	n := len(q)
	p := q[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && procLess(q[c+1], q[c]) {
			c++
		}
		if !procLess(q[c], p) {
			break
		}
		q[i] = q[c]
		q[i].qi = int32(i)
		i = c
	}
	q[i] = p
	p.qi = int32(i)
}

func (e *Engine) runqPush(p *Proc) {
	e.runq = append(e.runq, p)
	p.qi = int32(len(e.runq) - 1)
	e.runqUp(int(p.qi))
}

// runqFix restores heap order after p's key changed, inserting p if absent.
func (e *Engine) runqFix(p *Proc) {
	if p.qi < 0 {
		e.runqPush(p)
		return
	}
	i := int(p.qi)
	e.runqUp(i)
	if int(p.qi) == i {
		e.runqDown(i)
	}
}

// runqRemove detaches p from the runnable heap (no-op when absent).
func (e *Engine) runqRemove(p *Proc) {
	i := int(p.qi)
	if i < 0 {
		return
	}
	last := len(e.runq) - 1
	moved := e.runq[last]
	e.runq[last] = nil
	e.runq = e.runq[:last]
	p.qi = -1
	if i < last {
		e.runq[i] = moved
		moved.qi = int32(i)
		e.runqUp(i)
		if int(moved.qi) == i {
			e.runqDown(i)
		}
	}
}

func (e *Engine) fail(err error) {
	if e.failed == nil {
		e.failed = err
	}
}

// pollInterrupt counts one scheduler action and polls the Interrupt hook on
// the batching interval, converting a firing hook into a run failure.
func (e *Engine) pollInterrupt() {
	e.iters++
	if e.Interrupt != nil && e.iters%interruptEvery == 0 {
		if err := e.Interrupt(); err != nil {
			e.fail(fmt.Errorf("sim: aborted at cycle %d: %w", e.now, err))
		}
	}
}

// Run starts all processors at cycle 0, each executing fn, and drives the
// simulation until every processor's app function has returned. It returns
// the final time (the maximum completion cycle over all processors).
//
// A panic in app code, and a non-nil Interrupt poll, both abort the run: the
// engine unwinds every processor coroutine (no leaks) and returns the
// failure as an error.
func (e *Engine) Run(fn func(*Proc)) (Time, error) {
	for _, p := range e.procs {
		p.state = procResume
		p.clock = 0
		p.next, p.stop = iter.Pull(p.body(fn))
	}
	for _, p := range e.procs {
		e.runqPush(p)
	}
	e.live = len(e.procs)

	finish := e.loop()
	e.drain()
	if e.failed != nil {
		return e.now, e.failed
	}
	if finish < e.now {
		finish = e.now
	}
	e.now = finish
	return finish, nil
}

// loop is the scheduler: it advances the clock until every processor is done
// or the run fails. A panic out of an event or service closure (protocol
// machinery) is converted into a run failure so Run can still unwind the
// processor coroutines.
func (e *Engine) loop() (finish Time) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("sim: engine panic at cycle %d: %v", e.now, r))
		}
	}()
	for e.live > 0 && e.failed == nil {
		e.pollInterrupt()
		if e.failed != nil {
			return finish
		}
		// The earliest pending action sits at the heap roots.
		evAt := Forever
		if len(e.eheap) > 0 {
			evAt = e.arena[e.eheap[0]].at
		}
		var next *Proc
		procAt := Forever
		if len(e.runq) > 0 {
			next = e.runq[0]
			procAt = next.clock
		}
		if evAt <= procAt {
			if evAt == Forever {
				e.fail(fmt.Errorf("sim: deadlock at cycle %d: %d processors blocked with no pending events", e.now, e.live))
				return finish
			}
			e.fireNext()
			continue
		}
		e.runqRemove(next)
		e.now = procAt
		switch next.state {
		case procService:
			next.state = procBlocked // service decides the next state
			next.runService()
		case procResume:
			next.state = procRunning
			e.counts.Resumes++
			switch k, ok := next.next(); {
			case !ok:
				next.state = procDone
				e.live--
				if next.clock > finish {
					finish = next.clock
				}
			case k == yieldService:
				next.state = procService
				e.runqPush(next)
			}
			// yieldParked: state and heap membership are already current.
		}
	}
	return finish
}

// drain stops every processor coroutine. A live processor is suspended in
// Invoke or Park, where its yield then reports the stop and it unwinds by
// panicking abortSignal through its app code; one that never started or has
// finished needs nothing. Either way its coroutine is gone when stop returns.
func (e *Engine) drain() {
	for _, p := range e.procs {
		p.stop()
		p.state = procDone
	}
}

func (p *Proc) runService() {
	svc := p.svc
	p.svc = nil
	svc()
}

// body is the processor coroutine: fn(p) with every panic recovered here,
// because iter.Pull would re-raise one in whoever resumed the coroutine. An
// app panic becomes a run failure; abortSignal is the engine unwinding it.
func (p *Proc) body(fn func(*Proc)) iter.Seq[yieldKind] {
	return func(yield func(yieldKind) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, aborting := r.(abortSignal); !aborting {
					p.eng.fail(fmt.Errorf("sim: proc %d panicked: %v", p.ID, r))
				}
			}
		}()
		fn(p)
	}
}

// suspend switches the processor coroutine back to whoever resumed it and
// returns once it is resumed again. A coroutine stopped meanwhile unwinds.
func (p *Proc) suspend(k yieldKind) {
	if !p.yield(k) {
		panic(abortSignal{})
	}
}

// Clock returns the processor's local clock. Valid from both app code and
// engine context.
func (p *Proc) Clock() Time { return p.clock }

// Advance adds n cycles of pure computation to the processor's local clock.
// It must only be called from the processor's own app code.
func (p *Proc) Advance(n Time) {
	if n < 0 {
		panic("sim: negative Advance")
	}
	p.clock += n
}

// Invoke suspends the processor and has the engine run svc in exclusive
// engine context once global time reaches the processor's clock (all earlier
// events fire first). The service must finish the processor's transition by
// calling ResumeAt or Block; app code resumes once the engine next selects
// this processor. It must only be called from the processor's own app code.
func (p *Proc) Invoke(svc func()) {
	p.svc = svc
	p.suspend(yieldService)
}

// Park suspends the processor until it is resumed again: by Release (a
// functional round dispatching it) or by the engine selecting it after
// Reattach. A parked processor is indistinguishable from one suspended at
// its normal resume point, so the engine's resume and the abort path (stop)
// both work on it unchanged. App-context only.
func (p *Proc) Park() { p.suspend(yieldParked) }

// Release resumes a processor parked at Park or at its Invoke resume point
// on the calling goroutine and returns when it parks again. A functional
// round calls it for each member, possibly from several worker goroutines
// at once (one member each); the engine itself stays suspended in the round
// leader's resume, so engine exclusivity holds for everything the released
// processor is allowed to touch (its own node state only — see the
// sampler's round protocol). The engine may resume the member only after
// Release has returned: until then its coroutine has not switched out.
func (p *Proc) Release() { p.next() }

// DetachRunnable removes every resumable (procResume) processor from the
// runnable heap and appends it to dst in ascending ID order. The caller takes
// responsibility for running the detached processors outside the engine and
// must Reattach them before the engine regains control. Processors with a
// pending service stay queued; blocked and finished processors are untouched.
// Must be called from app context under engine exclusivity.
func (e *Engine) DetachRunnable(dst []*Proc) []*Proc {
	start := len(dst)
	for _, p := range e.procs {
		if p.state == procResume && p.qi >= 0 {
			dst = append(dst, p)
		}
	}
	for _, p := range dst[start:] {
		e.runqRemove(p)
	}
	return dst
}

// Reattach returns processors taken by DetachRunnable to the runnable heap,
// keyed by their (possibly advanced) clocks. Must be called from app context
// under engine exclusivity before control returns to the engine.
func (e *Engine) Reattach(ps []*Proc) {
	for _, p := range ps {
		e.runqPush(p)
	}
}

// Yield hands control back to the engine without advancing the clock: the
// processor re-enters the runnable queue at its current time and resumes
// once it is the earliest actor again. Functional-warmup stretches call it
// periodically so processors advance in near-lockstep — unbounded bursts
// would run one processor's clock far ahead of the parked rest, and the
// artificial skew would resolve as phantom sync stall at the next barrier.
func (p *Proc) Yield() {
	if p.yieldFn == nil {
		p.yieldFn = func() { p.ResumeAt(p.clock) }
	}
	p.Invoke(p.yieldFn)
}

// ResumeAt marks the processor runnable again at time t. Must be called from
// engine context (inside a service or event) for a processor that is in a
// service or blocked.
func (p *Proc) ResumeAt(t Time) {
	if t < p.clock {
		p.eng.fail(fmt.Errorf("sim: proc %d resume at %d before clock %d", p.ID, t, p.clock))
		t = p.clock
	}
	p.clock = t
	p.state = procResume
	p.eng.runqFix(p)
}

// Block leaves the processor waiting; some future event must call ResumeAt.
func (p *Proc) Block() {
	p.state = procBlocked
	p.eng.runqRemove(p)
}

// Blocked reports whether the processor is waiting on an external wakeup.
func (p *Proc) Blocked() bool { return p.state == procBlocked }
