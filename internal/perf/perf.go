// Package perf provides a perf_event_open-style user-space API over the
// simulated machine's hardware performance counters. Holmes's metric
// monitor opens one counter per (event, logical CPU) pair and reads deltas
// each invocation interval, exactly as the real implementation does with
// the perf_event_open(2) system call in counting mode.
package perf

import (
	"fmt"

	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/machine"
)

// Attr describes the event to open, mirroring struct perf_event_attr.
type Attr struct {
	Event hpe.Event
}

// Counter is an open per-CPU counting event. Reads return the value
// accumulated since Open or the last Reset.
type Counter struct {
	m       *machine.Machine
	attr    Attr
	cpu     int
	base    float64
	enabled bool
	// disabledAt freezes the value while the counter is disabled.
	frozen   float64
	openedAt int64
}

// Value is the result of reading a counter, mirroring the read_format
// with TimeEnabled for scaling checks.
type Value struct {
	Value       float64
	TimeEnabled int64 // ns since open
}

// Open opens a counting event on logical CPU cpu (pid == -1, cpu-wide
// semantics, the mode Holmes uses). It fails for out-of-range CPUs.
func Open(m *machine.Machine, attr Attr, cpu int) (*Counter, error) {
	if cpu < 0 || cpu >= m.Topology().LogicalCPUs() {
		return nil, fmt.Errorf("perf: cpu %d out of range (EINVAL)", cpu)
	}
	if err := probeEvent(attr.Event); err != nil {
		return nil, err
	}
	c := &Counter{m: m, attr: attr, cpu: cpu, enabled: true, openedAt: m.Now()}
	c.base = m.Counters(cpu).Read(attr.Event)
	return c, nil
}

// probeEvent verifies the PMU supports the event, so unknown events fail
// at open time like the real syscall (ENOENT) instead of at read time.
func probeEvent(e hpe.Event) (err error) {
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("perf: unsupported event %v (ENOENT)", e)
		}
	}()
	var c hpe.Counters
	_ = c.Read(e)
	return nil
}

// MustOpen is Open panicking on error, for experiment setup code.
func MustOpen(m *machine.Machine, attr Attr, cpu int) *Counter {
	c, err := Open(m, attr, cpu)
	if err != nil {
		panic(err)
	}
	return c
}

// Read returns the accumulated count since open/reset.
func (c *Counter) Read() Value {
	v := c.frozen
	if c.enabled {
		v = c.m.Counters(c.cpu).Read(c.attr.Event) - c.base
	}
	return Value{Value: v, TimeEnabled: c.m.Now() - c.openedAt}
}

// Reset zeroes the accumulated count (PERF_EVENT_IOC_RESET).
func (c *Counter) Reset() {
	c.base = c.m.Counters(c.cpu).Read(c.attr.Event)
	c.frozen = 0
}

// Disable freezes the counter (PERF_EVENT_IOC_DISABLE).
func (c *Counter) Disable() {
	if c.enabled {
		c.frozen = c.m.Counters(c.cpu).Read(c.attr.Event) - c.base
		c.enabled = false
	}
}

// Enable resumes counting (PERF_EVENT_IOC_ENABLE); time spent disabled is
// excluded from the count.
func (c *Counter) Enable() {
	if !c.enabled {
		c.base = c.m.Counters(c.cpu).Read(c.attr.Event) - c.frozen
		c.enabled = true
	}
}

// CPU returns the logical CPU the counter observes.
func (c *Counter) CPU() int { return c.cpu }

// Event returns the opened event.
func (c *Counter) Event() hpe.Event { return c.attr.Event }

// Group reads several events of one logical CPU coherently, mirroring
// perf event groups. Holmes opens {STALLS_MEM_ANY, LOADS, STORES} as a
// group per logical CPU so the VPI numerator and denominator cover the
// same interval.
type Group struct {
	m      *machine.Machine
	cpu    int
	events []hpe.Event
	base   []float64
	// execs is the CPU's machine.ExecCount when base was last taken. While
	// it is unchanged the counters equal base bitwise.
	execs uint64
	// scratch backs sampleDelta so the monitor's per-interval read — one
	// call per logical CPU every 100 µs — does not allocate.
	scratch []float64
}

// OpenGroup opens events as a group on logical CPU cpu.
func OpenGroup(m *machine.Machine, cpu int, events ...hpe.Event) (*Group, error) {
	if cpu < 0 || cpu >= m.Topology().LogicalCPUs() {
		return nil, fmt.Errorf("perf: cpu %d out of range (EINVAL)", cpu)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("perf: empty group")
	}
	for _, e := range events {
		if err := probeEvent(e); err != nil {
			return nil, err
		}
	}
	g := &Group{m: m, cpu: cpu, events: append([]hpe.Event(nil), events...)}
	g.base = make([]float64, len(events))
	g.scratch = make([]float64, len(events))
	g.Reset()
	return g, nil
}

// Reset zeroes all counters in the group.
func (g *Group) Reset() {
	snap := g.m.Counters(g.cpu)
	for i, e := range g.events {
		g.base[i] = snap.Read(e)
	}
	g.execs = g.m.ExecCount(g.cpu)
}

// Read returns the per-event deltas since the last Reset, in open order.
func (g *Group) Read() []float64 {
	snap := g.m.Counters(g.cpu)
	out := make([]float64, len(g.events))
	for i, e := range g.events {
		out[i] = snap.Read(e) - g.base[i]
	}
	return out
}

// ReadDelta returns the deltas and immediately resets, the common
// monitor-loop pattern. The returned slice is freshly allocated; internal
// callers on the per-tick path use sampleDelta instead.
func (g *Group) ReadDelta() []float64 {
	out := g.Read()
	g.Reset()
	return out
}

// sampleDelta is ReadDelta into the group's scratch buffer: one counter
// snapshot serves both the delta read and the reset, and nothing escapes
// to the heap. The returned slice is valid until the next call.
func (g *Group) sampleDelta() []float64 {
	snap := g.m.Counters(g.cpu)
	for i, e := range g.events {
		v := snap.Read(e)
		g.scratch[i] = v - g.base[i]
		g.base[i] = v
	}
	g.execs = g.m.ExecCount(g.cpu)
	return g.scratch
}

// VPIGroup bundles the exact counters Equation 1 needs for one logical
// CPU and computes the VPI of the chosen event over each interval.
type VPIGroup struct {
	g     *Group
	event hpe.Event
}

// OpenVPI opens {event, Loads, Stores} on logical CPU cpu.
func OpenVPI(m *machine.Machine, event hpe.Event, cpu int) (*VPIGroup, error) {
	g, err := OpenGroup(m, cpu, event, hpe.Loads, hpe.Stores)
	if err != nil {
		return nil, err
	}
	return &VPIGroup{g: g, event: event}, nil
}

// Sample returns the VPI over the interval since the previous Sample (or
// open) and resets the interval. With no retired memory instructions it
// returns 0. When the CPU has not run since the previous sample (see Ran)
// the counters still equal the group's base bitwise, so the read is
// skipped: every delta would be +0, the denominator 0, and the result 0 —
// exactly what is returned.
func (v *VPIGroup) Sample() float64 {
	if !v.Ran() {
		return 0
	}
	vals := v.g.sampleDelta()
	den := vals[1] + vals[2]
	if den <= 0 {
		return 0
	}
	return vals[0] / den
}

// Ran reports whether the CPU executed anything since the previous Sample
// (or open), by comparing machine.ExecCount with the count recorded at
// that read. When it did not, the CPU's counters and busy cycles are
// bitwise unchanged, so a caller may skip its own per-CPU reads of them
// too. It is cheap enough to inline into the monitor's per-CPU loop.
func (v *VPIGroup) Ran() bool { return v.g.m.ExecCount(v.g.cpu) != v.g.execs }

// CPU returns the observed logical CPU.
func (v *VPIGroup) CPU() int { return v.g.cpu }
