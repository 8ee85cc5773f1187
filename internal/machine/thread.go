package machine

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/workload"
)

// ThreadState is the lifecycle state of a hardware-schedulable thread.
type ThreadState int

// Thread states. Transitions: Idle -> Runnable (work pushed),
// Runnable -> Idle (queue drained), Runnable -> Sleeping (I/O item),
// Sleeping -> Runnable (wake event), any -> Exited (Exit).
const (
	Idle ThreadState = iota
	Runnable
	Sleeping
	Exited
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Runnable:
		return "runnable"
	case Sleeping:
		return "sleeping"
	case Exited:
		return "exited"
	}
	return fmt.Sprintf("ThreadState(%d)", int(s))
}

// ThreadListener receives thread lifecycle notifications. The kernel
// package implements it to maintain runqueues.
type ThreadListener interface {
	// ThreadReady fires when an idle or sleeping thread becomes runnable.
	ThreadReady(t *Thread)
	// ThreadStopped fires when a runnable thread stops being runnable
	// (drained its queue, began an I/O sleep, or exited).
	ThreadStopped(t *Thread)
}

// Thread is a hardware execution context with a FIFO queue of work items.
// It is created through Machine.NewThread and driven entirely by the
// simulation; it is not a goroutine.
type Thread struct {
	ID   int
	Name string

	m        *Machine
	listener ThreadListener
	state    ThreadState

	// FIFO of pending items queue[head:]; cur is the item in progress
	// with rem the remaining base cost. Invariant: head < len(queue), or
	// the queue is empty with head == 0.
	queue  []workload.Item
	head   int
	cur    workload.Item
	curSet bool
	rem    workload.Cost

	// lastExecTick guards against a buggy scheduler assigning the same
	// thread to two logical CPUs in one tick.
	lastExecTick int64

	// remPure records that the in-progress item carries no memory
	// accesses, letting the exec hot path skip the per-level scale and
	// subtract loops (scaling and subtracting zero counts is exact).
	remPure bool

	// wakeFn is the sleep-expiry callback, built once on the first sleep
	// and reused: a thread has at most one outstanding wake event, so the
	// per-sleep closure the event queue holds can be shared.
	wakeFn func(nowNs int64)

	// ConsumedCycles accumulates the effective cycles this thread has
	// executed, the basis of per-thread CPU usage accounting.
	ConsumedCycles float64
	// CompletedItems counts finished work items.
	CompletedItems int64
}

// State returns the thread's lifecycle state.
func (t *Thread) State() ThreadState { return t.state }

// QueueLen returns the number of pending items (excluding the in-progress
// one).
func (t *Thread) QueueLen() int { return len(t.queue) - t.head }

// Push appends items to the thread's work queue, waking it if idle.
// Pushing to an exited thread panics. Items must validate.
func (t *Thread) Push(items ...workload.Item) {
	if t.state == Exited {
		panic(fmt.Sprintf("machine: push to exited thread %d", t.ID))
	}
	for _, it := range items {
		if err := it.Validate(); err != nil {
			panic(err)
		}
	}
	t.queue = append(t.queue, items...)
	if t.state == Idle {
		t.state = Runnable
		t.m.runnable++
		if t.listener != nil {
			t.listener.ThreadReady(t)
		}
	}
}

// Exit permanently terminates the thread, discarding pending work.
func (t *Thread) Exit() {
	if t.state == Exited {
		return
	}
	wasRunnable := t.state == Runnable
	t.state = Exited
	t.queue = nil
	t.head = 0
	t.curSet = false
	if wasRunnable {
		t.m.runnable--
		if t.listener != nil {
			t.listener.ThreadStopped(t)
		}
	}
}

// nextItem loads the next queue entry into cur. Returns false if empty.
func (t *Thread) nextItem() bool {
	if t.curSet {
		return true
	}
	if len(t.queue) == 0 {
		return false
	}
	t.cur = t.queue[t.head]
	t.queue[t.head] = workload.Item{} // release references
	t.head++
	if t.head == len(t.queue) {
		// Reset the drained backing slice at the pop that drains it, so
		// a chain whose OnComplete pushes the next item reuses slot 0
		// instead of appending until the compaction below.
		t.queue = t.queue[:0]
		t.head = 0
	}
	t.curSet = true
	t.rem = t.cur.Cost
	// OR-fold instead of an array compare: zero iff every count is zero
	// (counts are never negative), and it stays inlined.
	a := &t.rem.Acc
	t.remPure = a[0].Loads|a[0].Stores|a[1].Loads|a[1].Stores|
		a[2].Loads|a[2].Stores|a[3].Loads|a[3].Stores == 0
	// Compact occasionally so the deque doesn't grow without bound.
	if t.head > 1024 && t.head*2 > len(t.queue) {
		n := copy(t.queue, t.queue[t.head:])
		t.queue = t.queue[:n]
		t.head = 0
	}
	return true
}

// finishItem completes the in-progress item at simulated time nowNs.
func (t *Thread) finishItem(nowNs int64) {
	fn := t.cur.OnComplete
	t.curSet = false
	t.CompletedItems++
	if fn != nil {
		fn(nowNs)
	}
}

// block transitions a runnable thread to Idle (queue drained).
func (t *Thread) block() {
	if t.state != Runnable {
		return
	}
	t.state = Idle
	t.m.runnable--
	if t.listener != nil {
		t.listener.ThreadStopped(t)
	}
}

// beginSleep transitions the thread to Sleeping until wakeAt.
func (t *Thread) beginSleep(wakeAt int64) {
	t.state = Sleeping
	t.m.runnable--
	if t.listener != nil {
		t.listener.ThreadStopped(t)
	}
	if t.wakeFn == nil {
		t.wakeFn = func(nowNs int64) {
			if t.state != Sleeping {
				return // exited while asleep
			}
			t.finishItem(nowNs)
			t.state = Runnable
			t.m.runnable++
			if t.listener != nil {
				t.listener.ThreadReady(t)
			}
			// If nothing is pending the thread immediately idles again.
			if !t.nextItem() {
				t.block()
			}
		}
	}
	t.m.events.schedule(wakeAt, t.wakeFn)
}
