//go:build go1.23

// This file needs Go 1.23 for iter.Pull. The constraint upgrades this one
// file's language version while go.mod stays at go 1.22.

package sim

import (
	"fmt"
	"iter"
)

// Stopped is the panic value used to unwind processes when the kernel shuts
// down. Process functions must not recover it.
type Stopped struct{}

func (Stopped) Error() string { return "sim: kernel stopped" }

// Proc is a simulated process. Its body runs as a coroutine driven by the
// kernel, and only that body may block it (Sleep, Wait, ...): a blocking
// call made from another process's body, or from outside any process,
// panics.
type Proc struct {
	k    *Kernel
	name string
	// seq is the spawn order; Shutdown unwinds parked processes by it.
	seq uint64
	// parkIdx is p's index in the kernel's parked set, -1 when not parked.
	parkIdx int
	// next runs the body until it suspends or returns; suspend, called
	// from the body, switches back to next's caller. Both come from
	// iter.Pull when the process starts.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	// epoch counts completed yields; a wakeup item targets the epoch it
	// was scheduled in, making stale wakeups self-discarding.
	epoch  uint64
	dead   bool
	exitEv *Event
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process executing fn. The process starts at the current
// virtual time, after already-scheduled items for that time.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(0, name, fn)
}

// SpawnAt is like Spawn but delays process start by d.
func (k *Kernel) SpawnAt(d Duration, name string, fn func(p *Proc)) *Proc {
	k.nprocs++
	k.spawned++
	p := &Proc{k: k, name: name, seq: k.spawned, parkIdx: -1, exitEv: NewEvent(k)}
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, func() {
		// iter.Pull's stop is not kept: Shutdown ends a blocked
		// coroutine by resuming it into a Stopped panic instead.
		p.next, _ = iter.Pull(func(suspend func(struct{}) bool) {
			p.suspend = suspend
			p.run(fn)
		})
		k.resume(p)
	})
	return p
}

// resume runs p until it next yields or exits. A panic in p's body other
// than Stopped propagates out of resume to the caller of Run or Shutdown,
// which clear the running process on the way out (a defer here would tax
// every wakeup).
func (k *Kernel) resume(p *Proc) {
	prev := k.running
	k.running = p
	p.next()
	k.running = prev
}

func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		p.dead = true
		p.k.nprocs--
		if r := recover(); r != nil {
			if _, ok := r.(Stopped); ok {
				return // unwound by kernel shutdown
			}
			panic(r)
		}
		p.exitEv.Trigger(nil)
	}()
	fn(p)
}

// mustRun panics unless p is the process the kernel is running. Blocking
// methods call it before they touch any waiter list or the clock, so a
// misdirected call fails without corrupting p's state.
func (p *Proc) mustRun() {
	if p.k.running != p {
		p.blockedFromElsewhere()
	}
}

// blockedFromElsewhere is mustRun's failure path, kept out of line so
// mustRun inlines into every blocking call.
func (p *Proc) blockedFromElsewhere() {
	from := "outside any process"
	if r := p.k.running; r != nil {
		from = r.name
	}
	panic(fmt.Sprintf("sim: %s blocked from %s", p.name, from))
}

// yield hands control back to the kernel and blocks until resumed.
func (p *Proc) yield() {
	p.suspend(struct{}{})
	p.epoch++
	if p.k.stopping {
		panic(Stopped{})
	}
}

// wakeAt schedules this process to resume at time t.
func (p *Proc) wakeAt(t Time) timer {
	return p.k.scheduleProc(t, p)
}

// Sleep blocks the process for d of virtual time. Negative durations are
// treated as zero (the process still lets same-time items run first).
//
// Fast path: when the wakeup would be the very next item the kernel
// dispatches anyway — nothing in the run queue, nothing in the heap before
// t, t within Run's limit — the process advances the clock inline and
// keeps running. No item, no heap operations, no coroutine switch; the
// observable schedule is identical.
func (p *Proc) Sleep(d Duration) {
	p.mustRun()
	if d < 0 {
		d = 0
	}
	k := p.k
	t := k.now + d
	if k.dispatching && !k.stopping && t <= k.limit && t < k.nextTick &&
		k.rqh >= len(k.runq) && (len(k.heap) == 0 || k.heap[0].t > t) {
		k.now = t
		k.executed++
		k.inlineSleeps++
		return
	}
	p.wakeAt(t)
	p.yield()
}

// Exited returns an event triggered when the process function returns.
func (p *Proc) Exited() *Event { return p.exitEv }
