package cpuid

import (
	"testing"
	"testing/quick"
)

func TestTopologyBasics(t *testing.T) {
	top := Topology{Sockets: 1, Cores: 16}
	if top.PhysicalCores() != 16 || top.LogicalCPUs() != 32 {
		t.Fatalf("cores=%d lcpus=%d", top.PhysicalCores(), top.LogicalCPUs())
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyValidate(t *testing.T) {
	for _, bad := range []Topology{{0, 4}, {1, 0}, {-1, 2}} {
		if bad.Validate() == nil {
			t.Fatalf("topology %+v should be invalid", bad)
		}
	}
}

func TestSiblingMapping(t *testing.T) {
	top := Topology{Sockets: 1, Cores: 16}
	// Linux layout: lcpu 0 and 16 share core 0.
	if got := top.SiblingOf(0); got != 16 {
		t.Fatalf("SiblingOf(0) = %d", got)
	}
	if got := top.SiblingOf(16); got != 0 {
		t.Fatalf("SiblingOf(16) = %d", got)
	}
	if got := top.CoreOf(16); got != 0 {
		t.Fatalf("CoreOf(16) = %d", got)
	}
	if got := top.ThreadOf(16); got != 1 {
		t.Fatalf("ThreadOf(16) = %d", got)
	}
	a, b := top.ThreadsOfCore(3)
	if a != 3 || b != 19 {
		t.Fatalf("ThreadsOfCore(3) = %d,%d", a, b)
	}
}

func TestSiblingInvolution(t *testing.T) {
	top := Topology{Sockets: 2, Cores: 8}
	for lcpu := 0; lcpu < top.LogicalCPUs(); lcpu++ {
		sib := top.SiblingOf(lcpu)
		if sib == lcpu {
			t.Fatalf("lcpu %d is its own sibling", lcpu)
		}
		if top.SiblingOf(sib) != lcpu {
			t.Fatalf("sibling not an involution at %d", lcpu)
		}
		if top.CoreOf(sib) != top.CoreOf(lcpu) {
			t.Fatalf("siblings on different cores at %d", lcpu)
		}
	}
}

func TestSocketOf(t *testing.T) {
	top := Topology{Sockets: 2, Cores: 8}
	if top.SocketOf(0) != 0 || top.SocketOf(7) != 0 {
		t.Fatal("first socket wrong")
	}
	if top.SocketOf(8) != 1 || top.SocketOf(15) != 1 {
		t.Fatal("second socket wrong")
	}
	// Thread 1 of core 0 must be on socket 0.
	if top.SocketOf(16) != 0 {
		t.Fatal("sibling crossed sockets")
	}
}

func TestTopologyPanicsOutOfRange(t *testing.T) {
	top := DefaultTopology()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	top.CoreOf(top.LogicalCPUs())
}

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 3, 64, 100)
	if !m.Has(0) || !m.Has(3) || !m.Has(64) || !m.Has(100) {
		t.Fatal("missing set bits")
	}
	if m.Has(1) || m.Has(255) {
		t.Fatal("spurious bits")
	}
	if m.Count() != 4 {
		t.Fatalf("Count = %d", m.Count())
	}
	m.Clear(3)
	if m.Has(3) || m.Count() != 3 {
		t.Fatal("Clear failed")
	}
}

func TestMaskHasOutOfRange(t *testing.T) {
	var m Mask
	if m.Has(-1) || m.Has(256) || m.Has(1000) {
		t.Fatal("out-of-range Has should be false")
	}
}

func TestMaskSetOps(t *testing.T) {
	a := MaskOf(0, 1, 2)
	b := MaskOf(2, 3)
	if got := a.Union(b).CPUs(); len(got) != 4 {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b).CPUs(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Subtract(b).CPUs(); len(got) != 2 {
		t.Fatalf("Subtract = %v", got)
	}
	if !a.Equal(MaskOf(2, 1, 0)) {
		t.Fatal("Equal failed")
	}
}

func TestMaskFirstEmpty(t *testing.T) {
	var m Mask
	if !m.Empty() || m.First() != -1 {
		t.Fatal("empty mask misbehaves")
	}
	m.Set(42)
	if m.First() != 42 {
		t.Fatalf("First = %d", m.First())
	}
}

// TestMaskNextMatchesCPUs checks that the allocation-free Next walk
// visits exactly CPUs(), in order, across word boundaries.
func TestMaskNextMatchesCPUs(t *testing.T) {
	f := func(a, b, c, d uint64) bool {
		m := Mask{bits: [4]uint64{a, b, c, d}}
		var walked []int
		for cpu := m.Next(0); cpu >= 0; cpu = m.Next(cpu + 1) {
			walked = append(walked, cpu)
		}
		want := m.CPUs()
		if len(walked) != len(want) {
			return false
		}
		for i := range want {
			if walked[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	m := MaskOf(0, 63, 64, 255)
	if m.Next(-5) != 0 || m.Next(1) != 63 || m.Next(65) != 255 || m.Next(256) != -1 {
		t.Fatal("Next edge cases")
	}
}

func TestFullMask(t *testing.T) {
	m := FullMask(32)
	if m.Count() != 32 || !m.Has(31) || m.Has(32) {
		t.Fatalf("FullMask(32) wrong: %v", m.CPUs())
	}
}

func TestMaskStringRoundTrip(t *testing.T) {
	cases := []Mask{
		MaskOf(0, 1, 2, 3),
		MaskOf(5),
		MaskOf(0, 2, 4, 5, 6, 10),
		{},
		FullMask(64),
	}
	for _, m := range cases {
		s := m.String()
		back, err := ParseMask(s)
		if err != nil {
			t.Fatalf("ParseMask(%q): %v", s, err)
		}
		if !back.Equal(m) {
			t.Fatalf("round trip failed: %q -> %v", s, back.CPUs())
		}
	}
}

func TestMaskStringFormat(t *testing.T) {
	if got := MaskOf(0, 1, 2, 3).String(); got != "0-3" {
		t.Fatalf("String = %q", got)
	}
	if got := MaskOf(0, 2, 3, 4, 8).String(); got != "0,2-4,8" {
		t.Fatalf("String = %q", got)
	}
}

func TestParseMaskErrors(t *testing.T) {
	for _, s := range []string{"x", "1-", "-3", "5-2", "300", "1,,2", "1-300"} {
		if _, err := ParseMask(s); err == nil {
			t.Fatalf("ParseMask(%q) should fail", s)
		}
	}
}

func TestMaskPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(cpus []uint8) bool {
		var m Mask
		for _, c := range cpus {
			m.Set(int(c))
		}
		back, err := ParseMask(m.String())
		return err == nil && back.Equal(m)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaskCPUsSorted(t *testing.T) {
	m := MaskOf(200, 3, 77, 0)
	cpus := m.CPUs()
	for i := 1; i < len(cpus); i++ {
		if cpus[i] <= cpus[i-1] {
			t.Fatalf("CPUs not sorted: %v", cpus)
		}
	}
}
