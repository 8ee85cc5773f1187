package perf

import (
	"testing"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// pinned assigns fixed threads to fixed CPUs.
type pinned map[int]*machine.Thread

func (p pinned) Assign(nowNs int64, assign []*machine.Thread) {
	for cpu, t := range p {
		assign[cpu] = t
	}
}

func newMachine() (*machine.Machine, pinned) {
	cfg := machine.DefaultConfig()
	cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 4}
	m := machine.New(cfg)
	p := pinned{}
	m.SetScheduler(p)
	return m, p
}

func dramWork(lines int64) workload.Item {
	return workload.Work(workload.MemRead(workload.DRAM, lines))
}

func TestOpenValidation(t *testing.T) {
	m, _ := newMachine()
	if _, err := Open(m, Attr{Event: hpe.StallsMemAny}, -1); err == nil {
		t.Fatal("negative cpu should fail")
	}
	if _, err := Open(m, Attr{Event: hpe.StallsMemAny}, 8); err == nil {
		t.Fatal("out-of-range cpu should fail")
	}
	if _, err := Open(m, Attr{Event: hpe.Event(0xBEEF)}, 0); err == nil {
		t.Fatal("unknown event should fail at open")
	}
	if _, err := Open(m, Attr{Event: hpe.StallsMemAny}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCounterCountsOnlyAfterOpen(t *testing.T) {
	m, p := newMachine()
	th := m.NewThread("w", nil)
	p[0] = th
	th.Push(dramWork(10000))
	m.RunFor(1_000_000)
	// Open after some work: counter must start at zero.
	c := MustOpen(m, Attr{Event: hpe.Loads}, 0)
	if v := c.Read(); v.Value != 0 {
		t.Fatalf("fresh counter reads %v", v.Value)
	}
	th.Push(dramWork(5000))
	m.RunFor(10_000_000)
	if v := c.Read(); v.Value != 5000 {
		t.Fatalf("counter = %v, want 5000", v.Value)
	}
}

func TestCounterResetDisableEnable(t *testing.T) {
	m, p := newMachine()
	th := m.NewThread("w", nil)
	p[0] = th
	c := MustOpen(m, Attr{Event: hpe.Loads}, 0)

	th.Push(dramWork(1000))
	m.RunFor(5_000_000)
	c.Reset()
	if v := c.Read(); v.Value != 0 {
		t.Fatalf("after reset: %v", v.Value)
	}

	c.Disable()
	th.Push(dramWork(1000))
	m.RunFor(5_000_000)
	if v := c.Read(); v.Value != 0 {
		t.Fatalf("disabled counter accumulated %v", v.Value)
	}

	c.Enable()
	th.Push(dramWork(700))
	m.RunFor(5_000_000)
	if v := c.Read(); v.Value != 700 {
		t.Fatalf("re-enabled counter = %v, want 700", v.Value)
	}
}

func TestTimeEnabled(t *testing.T) {
	m, _ := newMachine()
	c := MustOpen(m, Attr{Event: hpe.Cycles}, 0)
	m.RunFor(120_000) // a whole number of 10 µs ticks
	if v := c.Read(); v.TimeEnabled != 120_000 {
		t.Fatalf("TimeEnabled = %d", v.TimeEnabled)
	}
	if c.CPU() != 0 || c.Event() != hpe.Cycles {
		t.Fatal("accessors wrong")
	}
}

func TestGroupCoherentRead(t *testing.T) {
	m, p := newMachine()
	th := m.NewThread("w", nil)
	p[0] = th
	g, err := OpenGroup(m, 0, hpe.StallsMemAny, hpe.Loads, hpe.Stores)
	if err != nil {
		t.Fatal(err)
	}
	work := workload.MemRead(workload.DRAM, 2000)
	work.Add(workload.MemWrite(workload.DRAM, 500))
	th.Push(workload.Work(work))
	m.RunFor(10_000_000)
	vals := g.Read()
	if vals[1] != 2000 || vals[2] != 500 {
		t.Fatalf("group loads/stores = %v/%v", vals[1], vals[2])
	}
	if vals[0] <= 0 {
		t.Fatal("no stalls recorded")
	}
	// ReadDelta resets.
	_ = g.ReadDelta()
	vals = g.Read()
	if vals[1] != 0 {
		t.Fatalf("after ReadDelta loads = %v", vals[1])
	}
}

func TestGroupValidation(t *testing.T) {
	m, _ := newMachine()
	if _, err := OpenGroup(m, 99, hpe.Loads); err == nil {
		t.Fatal("bad cpu")
	}
	if _, err := OpenGroup(m, 0); err == nil {
		t.Fatal("empty group")
	}
	if _, err := OpenGroup(m, 0, hpe.Event(0xBEEF)); err == nil {
		t.Fatal("unknown event in group")
	}
}

func TestVPIGroupSample(t *testing.T) {
	m, p := newMachine()
	th := m.NewThread("w", nil)
	p[0] = th
	v, err := OpenVPI(m, hpe.StallsMemAny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.CPU() != 0 {
		t.Fatal("CPU accessor")
	}
	// Idle: VPI is 0, not NaN.
	m.RunFor(100_000)
	if got := v.Sample(); got != 0 {
		t.Fatalf("idle VPI = %v", got)
	}
	// DRAM-bound work: VPI approximates the effective DRAM stall cycles
	// per access (the machine model's 170 uncontended DRAM cycles).
	th.Push(dramWork(20000))
	m.RunFor(10_000_000)
	got := v.Sample()
	const dram = 170.0
	if got < dram*0.9 || got > dram*1.15 {
		t.Fatalf("uncontended DRAM VPI = %v, want ~%v", got, dram)
	}
}

func TestVPISeesInterference(t *testing.T) {
	m, p := newMachine()
	victim := m.NewThread("victim", nil)
	p[0] = victim
	agg := m.NewThread("agg", nil)
	p[m.Sibling(0)] = agg

	v, _ := OpenVPI(m, hpe.StallsMemAny, 0)

	victim.Push(dramWork(50000))
	m.RunFor(20_000_000)
	quiet := v.Sample()

	for i := 0; i < 200; i++ {
		agg.Push(dramWork(16384))
	}
	m.RunFor(1_000_000) // let the aggressor's duty cycle establish
	_ = v.Sample()
	victim.Push(dramWork(50000))
	m.RunFor(20_000_000)
	noisy := v.Sample()

	if noisy < quiet*1.4 {
		t.Fatalf("VPI quiet=%v noisy=%v; interference invisible", quiet, noisy)
	}
}
