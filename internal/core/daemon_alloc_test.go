package core

import (
	"testing"
)

// TestDaemonTickAllocs guards the daemon's steady state: with a service
// registered and batch work on its siblings, one 100 µs interval — a
// monitor sample plus a full scheduler pass — must not allocate. The
// watchdog case covers the counter-health scan cluster nodes run every
// tick.
func TestDaemonTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard not meaningful under -race")
	}
	watchdog := testDaemonConfig()
	watchdog.WatchdogWindow = 128
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", testDaemonConfig()},
		{"watchdog", watchdog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, k, fs := newEnv()
			d, err := Start(k, fs, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Stop()
			svc := k.Spawn("svc", 2)
			if err := d.RegisterLC(svc.PID); err != nil {
				t.Fatal(err)
			}
			chain(svc.Threads()[0], lcCost())
			b := k.Spawn("batch", 2)
			if err := b.SetAffinity(d.BatchMask()); err != nil {
				t.Fatal(err)
			}
			for _, th := range b.Threads() {
				chain(th, batchCost())
			}
			m.RunFor(20 * tc.cfg.IntervalNs) // settle
			before := d.invocations
			interval := func() { m.RunFor(tc.cfg.IntervalNs) }
			if n := testing.AllocsPerRun(100, interval); n != 0 {
				t.Fatalf("Daemon.tick allocates: %v allocs per interval", n)
			}
			if d.invocations-before < 100 {
				t.Fatalf("daemon ticked %d times over 101 intervals", d.invocations-before)
			}
			if _, _, _, exp := d.Stats(); exp != 0 {
				t.Fatalf("steady state expanded the pool %d times", exp)
			}
		})
	}
}
