package memsys

import "fmt"

// TLB is a set-associative translation lookaside buffer over virtual page
// numbers. Each entry carries the page-table generation observed when the
// translation was loaded; a page migration bumps the page's generation, so
// stale entries miss on their next use. This models lazy TLB shootdown —
// the eager interprocessor-interrupt cost of a shootdown is charged by the
// migration engines themselves.
type TLB struct {
	ways    int
	setMask uint64
	vpns    []uint64 // vpn+1, 0 invalid
	gens    []uint32
	age     []uint64
	tick    uint64

	hits, misses uint64
}

// NewTLB builds a TLB with the given number of entries and associativity.
// entries must be a power-of-two multiple of ways.
func NewTLB(entries, ways int) (*TLB, error) {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("memsys: TLB shape %d entries / %d ways invalid", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("memsys: TLB set count %d not a power of two", sets)
	}
	return &TLB{
		ways:    ways,
		setMask: uint64(sets - 1),
		vpns:    make([]uint64, entries),
		gens:    make([]uint32, entries),
		age:     make([]uint64, entries),
	}, nil
}

// MustTLB is NewTLB for statically known shapes.
func MustTLB(entries, ways int) *TLB {
	t, err := NewTLB(entries, ways)
	if err != nil {
		panic(err)
	}
	return t
}

// Lookup reports whether vpn has a translation loaded at generation gen.
// An entry whose generation does not match is invalidated (a shootdown
// took effect) and the lookup misses.
func (t *TLB) Lookup(vpn uint64, gen uint32) bool {
	set := int(vpn&t.setMask) * t.ways
	tag := vpn + 1
	t.tick++
	for w := 0; w < t.ways; w++ {
		if t.vpns[set+w] == tag {
			if t.gens[set+w] != gen {
				t.vpns[set+w] = 0
				t.misses++
				return false
			}
			t.age[set+w] = t.tick
			t.hits++
			return true
		}
	}
	t.misses++
	return false
}

// LookupRun performs n lookups of vpn at generation gen: the first has the
// full semantics of Lookup, with the translation loaded via Insert when it
// misses, and the remaining n-1 are the guaranteed hits a just-loaded
// translation gives. It reports whether the first lookup hit (the caller
// charges one refill when it did not). Tick, the entry's age, and the
// hit/miss counters end up bit-identical to n Lookup calls plus the one
// Insert a scalar caller would have issued.
func (t *TLB) LookupRun(vpn uint64, gen uint32, n int) bool {
	if n <= 0 {
		return true
	}
	hit := t.Lookup(vpn, gen)
	if !hit {
		t.Insert(vpn, gen)
	}
	if n > 1 {
		t.tick += uint64(n - 1)
		t.hits += uint64(n - 1)
		set := int(vpn&t.setMask) * t.ways
		tag := vpn + 1
		for w := 0; w < t.ways; w++ {
			if t.vpns[set+w] == tag {
				t.age[set+w] = t.tick
				break
			}
		}
	}
	return hit
}

// Bytes returns the size of the TLB's entry arrays.
func (t *TLB) Bytes() int64 { return int64(len(t.vpns)) * (8 + 4 + 8) }

// Clone returns a deep copy of the TLB: resident translations with their
// shootdown generations, LRU state and hit/miss counters. See
// Cache.Clone for the snapshot/fork use.
func (t *TLB) Clone() *TLB {
	return &TLB{
		ways:    t.ways,
		setMask: t.setMask,
		vpns:    append([]uint64(nil), t.vpns...),
		gens:    append([]uint32(nil), t.gens...),
		age:     append([]uint64(nil), t.age...),
		tick:    t.tick,
		hits:    t.hits,
		misses:  t.misses,
	}
}

// Insert loads the translation for vpn at generation gen, evicting LRU.
func (t *TLB) Insert(vpn uint64, gen uint32) {
	set := int(vpn&t.setMask) * t.ways
	tag := vpn + 1
	t.tick++
	victim := set
	for w := 0; w < t.ways; w++ {
		if t.vpns[set+w] == tag || t.vpns[set+w] == 0 {
			victim = set + w
			break
		}
		if t.age[set+w] < t.age[victim] {
			victim = set + w
		}
	}
	t.vpns[victim] = tag
	t.gens[victim] = gen
	t.age[victim] = t.tick
}

// Flush drops every translation.
func (t *TLB) Flush() {
	for i := range t.vpns {
		t.vpns[i] = 0
	}
}

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return len(t.vpns) }

// Stats returns cumulative hit and miss counts.
func (t *TLB) Stats() (hits, misses uint64) { return t.hits, t.misses }
