package machine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/holmes-colocation/holmes/internal/cpuid"
	"github.com/holmes-colocation/holmes/internal/hpe"
	"github.com/holmes-colocation/holmes/internal/kernel"
	"github.com/holmes-colocation/holmes/internal/machine"
	"github.com/holmes-colocation/holmes/internal/workload"
)

// counterBits is the bit pattern of every hardware counter, so the
// comparison below distinguishes +0 from -0 (== on the struct would not).
func counterBits(c hpe.Counters) [8]uint64 {
	return [8]uint64{
		math.Float64bits(c.Cycles), math.Float64bits(c.Instructions),
		math.Float64bits(c.Loads), math.Float64bits(c.Stores),
		math.Float64bits(c.CyclesL3Miss), math.Float64bits(c.StallsL3Miss),
		math.Float64bits(c.CyclesMemAny), math.Float64bits(c.StallsMemAny),
	}
}

// TestExecCountProvesCountersUnchanged pins the proof the monitor's
// sample skip rests on: whenever ExecCount(p) has not moved between two
// observations, Counters(p) and BusyCycles(p) are bitwise unchanged. The
// workload drives every path that can touch a CPU's state — loaded
// siblings with DRAM traffic (interval-batched when batching is on),
// sleep and wake mid-tick, idle stretches the machine fast-forwards, and
// a thread that runs and blocks without consuming a cycle — and the
// observations land at uneven points, from one tick to several ms apart.
func TestExecCountProvesCountersUnchanged(t *testing.T) {
	for _, batching := range []bool{false, true} {
		t.Run(fmt.Sprintf("batching=%v", batching), func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.Topology = cpuid.Topology{Sockets: 1, Cores: 2}
			cfg.IntervalBatching = batching
			m := machine.New(cfg)
			k := kernel.New(m)
			per := cfg.CyclesPerTick()

			burst := workload.Compute(2.5 * per)
			burst.Add(workload.MemRead(workload.DRAM, 80))
			pin := func(name string, cpu int) *kernel.Thread {
				p := k.Spawn(name, 1)
				if err := p.SetAffinity(cpuid.MaskOf(cpu)); err != nil {
					t.Fatal(err)
				}
				return p.Threads()[0]
			}
			svc := pin("svc", 0)
			batch := pin("batch", m.Sibling(0))
			zero := pin("zero", 1)
			// Bursts with sleeps between them, re-armed every 4 ms; the
			// tail of each period is idle on every CPU.
			m.SchedulePeriodic(4_000_000, func(int64) {
				for i := 0; i < 6; i++ {
					svc.HW.Push(workload.Work(burst), workload.Sleep(int64(30_000+i*7_777)))
					batch.HW.Push(workload.Work(burst))
				}
				batch.HW.Push(workload.Sleep(123_456), workload.Work(burst))
				// Runs for a tick but consumes nothing: a zero-cost item
				// completes instantly and the thread blocks.
				zero.HW.Push(workload.Item{})
			})

			n := m.Topology().LogicalCPUs()
			execs := make([]uint64, n)
			bits := make([][8]uint64, n)
			busy := make([]uint64, n)
			var unchanged, moved, zeroRuns, idleWindows int
			observe := func(prevNow int64) {
				allStill := true
				for p := 0; p < n; p++ {
					e := m.ExecCount(p)
					cb := counterBits(m.Counters(p))
					bb := math.Float64bits(m.BusyCycles(p))
					if e == execs[p] {
						unchanged++
						if cb != bits[p] || bb != busy[p] {
							t.Fatalf("t=%d cpu %d: ExecCount stayed %d but counters/busy moved", m.Now(), p, e)
						}
					} else {
						moved++
						allStill = false
						if bb == busy[p] {
							zeroRuns++
						}
					}
					execs[p], bits[p], busy[p] = e, cb, bb
				}
				if allStill && m.Now()-prevNow >= 1_000_000 {
					idleWindows++
				}
			}
			rnd := rand.New(rand.NewSource(7))
			for m.Now() < 60_000_000 {
				prev := m.Now()
				// One tick to ~3 ms, off the tick grid.
				m.RunFor(int64(rnd.Intn(300))*cfg.TickNs + int64(rnd.Intn(int(cfg.TickNs))))
				observe(prev)
			}
			if unchanged == 0 || moved == 0 || zeroRuns == 0 || idleWindows == 0 {
				t.Fatalf("scenario missed a case: unchanged=%d moved=%d zero-cycle runs=%d idle windows=%d",
					unchanged, moved, zeroRuns, idleWindows)
			}
			if batching && m.BatchedTicks() == 0 {
				t.Fatal("interval-batched path never ran")
			}
		})
	}
}
