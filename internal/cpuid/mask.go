package cpuid

import (
	"fmt"
	"math/bits"
	"strings"
)

// Mask is a CPU affinity bitmask over logical CPUs, the simulated
// counterpart of Linux's cpu_set_t used by sched_setaffinity. It supports
// machines with up to 256 logical CPUs, far beyond the reproduction's needs.
type Mask struct {
	bits [4]uint64
}

// MaskOf returns a Mask with the given logical CPUs set.
func MaskOf(lcpus ...int) Mask {
	var m Mask
	for _, c := range lcpus {
		m.Set(c)
	}
	return m
}

// FullMask returns a mask with logical CPUs [0, n) set.
func FullMask(n int) Mask {
	var m Mask
	for i := 0; i < n; i++ {
		m.Set(i)
	}
	return m
}

// Set marks logical CPU c as allowed.
func (m *Mask) Set(c int) {
	m.checkRange(c)
	m.bits[c/64] |= 1 << (uint(c) % 64)
}

// Clear removes logical CPU c.
func (m *Mask) Clear(c int) {
	m.checkRange(c)
	m.bits[c/64] &^= 1 << (uint(c) % 64)
}

// Has reports whether logical CPU c is in the mask.
func (m Mask) Has(c int) bool {
	if c < 0 || c >= 256 {
		return false
	}
	return m.bits[c/64]&(1<<(uint(c)%64)) != 0
}

// Count returns the number of CPUs in the mask.
func (m Mask) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no CPU is set.
func (m Mask) Empty() bool { return m.Count() == 0 }

// Union returns the set union of m and other.
func (m Mask) Union(other Mask) Mask {
	var out Mask
	for i := range m.bits {
		out.bits[i] = m.bits[i] | other.bits[i]
	}
	return out
}

// Intersect returns the set intersection of m and other.
func (m Mask) Intersect(other Mask) Mask {
	var out Mask
	for i := range m.bits {
		out.bits[i] = m.bits[i] & other.bits[i]
	}
	return out
}

// Subtract returns m with other's CPUs removed.
func (m Mask) Subtract(other Mask) Mask {
	var out Mask
	for i := range m.bits {
		out.bits[i] = m.bits[i] &^ other.bits[i]
	}
	return out
}

// Equal reports whether both masks contain the same CPUs.
func (m Mask) Equal(other Mask) bool { return m.bits == other.bits }

// CPUs returns the sorted list of logical CPUs in the mask.
func (m Mask) CPUs() []int {
	out := make([]int, 0, m.Count())
	for w := 0; w < len(m.bits); w++ {
		word := m.bits[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, w*64+b)
			word &^= 1 << uint(b)
		}
	}
	return out
}

// Next returns the lowest CPU in the mask at or above c, or -1 if there
// is none. The loop `for c := m.Next(0); c >= 0; c = m.Next(c + 1)`
// visits the CPUs in CPUs order without allocating.
func (m Mask) Next(c int) int {
	if c < 0 {
		c = 0
	}
	for w := c / 64; w < len(m.bits); w++ {
		word := m.bits[w]
		if w == c/64 {
			word &^= 1<<(uint(c)%64) - 1
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// First returns the lowest CPU in the mask, or -1 if empty.
func (m Mask) First() int {
	for w := 0; w < len(m.bits); w++ {
		if m.bits[w] != 0 {
			return w*64 + bits.TrailingZeros64(m.bits[w])
		}
	}
	return -1
}

// String renders the mask in Linux cpuset list format (e.g. "0-3,8,10").
func (m Mask) String() string {
	cpus := m.CPUs()
	if len(cpus) == 0 {
		return ""
	}
	var b strings.Builder
	start, prev := cpus[0], cpus[0]
	flush := func() {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if start == prev {
			fmt.Fprintf(&b, "%d", start)
		} else {
			fmt.Fprintf(&b, "%d-%d", start, prev)
		}
	}
	for _, c := range cpus[1:] {
		if c == prev+1 {
			prev = c
			continue
		}
		flush()
		start, prev = c, c
	}
	flush()
	return b.String()
}

// ParseMask parses the Linux cpuset list format ("0-3,8,10").
// An empty string yields an empty mask.
func ParseMask(s string) (Mask, error) {
	var m Mask
	s = strings.TrimSpace(s)
	if s == "" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			var a, b int
			if _, err := fmt.Sscanf(lo, "%d", &a); err != nil {
				return Mask{}, fmt.Errorf("cpuid: bad mask element %q", part)
			}
			if _, err := fmt.Sscanf(hi, "%d", &b); err != nil {
				return Mask{}, fmt.Errorf("cpuid: bad mask element %q", part)
			}
			if a > b || a < 0 || b >= 256 {
				return Mask{}, fmt.Errorf("cpuid: bad mask range %q", part)
			}
			for c := a; c <= b; c++ {
				m.Set(c)
			}
		} else {
			var c int
			if _, err := fmt.Sscanf(part, "%d", &c); err != nil {
				return Mask{}, fmt.Errorf("cpuid: bad mask element %q", part)
			}
			if c < 0 || c >= 256 {
				return Mask{}, fmt.Errorf("cpuid: CPU %d out of range", c)
			}
			m.Set(c)
		}
	}
	return m, nil
}

func (m *Mask) checkRange(c int) {
	if c < 0 || c >= 256 {
		panic(fmt.Sprintf("cpuid: CPU %d out of mask range [0,256)", c))
	}
}
