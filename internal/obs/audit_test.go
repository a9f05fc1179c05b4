package obs

import (
	"math/rand"
	"testing"

	"hardharvest/internal/sim"
)

// TestStampsMatchMap drives the audit's open-addressing stamp table and a
// Go map through the same random puts, overwrites and deletions — ids drawn
// from a sliding window like the simulator's sequential request ids, plus
// far-off stragglers — and requires identical contents after every step.
func TestStampsMatchMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s stamps
	ref := map[uint64]sim.Time{}
	next := uint64(0)
	live := []uint64{}
	check := func(step int) {
		t.Helper()
		if s.n != len(ref) {
			t.Fatalf("step %d: n = %d, want %d", step, s.n, len(ref))
		}
		if 2*s.n > len(s.slots) {
			t.Fatalf("step %d: %d entries in %d slots", step, s.n, len(s.slots))
		}
		seen := 0
		for _, e := range s.slots {
			if e.key == 0 {
				continue
			}
			seen++
			if at, ok := ref[e.key-1]; !ok || at != e.at {
				t.Fatalf("step %d: slot holds id %d at %v, map has %v (present %v)", step, e.key-1, e.at, at, ok)
			}
		}
		if seen != len(ref) {
			t.Fatalf("step %d: %d live slots, want %d", step, seen, len(ref))
		}
		for id := range ref {
			if s.find(id) < 0 {
				t.Fatalf("step %d: id %d unreachable", step, id)
			}
		}
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5 || len(live) == 0: // arrival of a fresh id
			next += uint64(1 + rng.Intn(3))
			id := next
			if rng.Intn(200) == 0 {
				id += 1 << 40 // a straggler far from the window
			}
			at := sim.Time(rng.Int63n(1 << 40))
			if _, ok := ref[id]; !ok {
				live = append(live, id)
			}
			s.put(id, at)
			ref[id] = at
		case op < 6: // overwrite an existing stamp
			id := live[rng.Intn(len(live))]
			at := sim.Time(rng.Int63n(1 << 40))
			s.put(id, at)
			ref[id] = at
		default: // resolve one
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			i := s.find(id)
			if i < 0 {
				t.Fatalf("step %d: live id %d not found", step, id)
			}
			if s.slots[i].at != ref[id] {
				t.Fatalf("step %d: id %d at %v, want %v", step, id, s.slots[i].at, ref[id])
			}
			s.deleteAt(i)
			delete(ref, id)
		}
		if absent := next + 1; s.find(absent) >= 0 {
			t.Fatalf("step %d: unseen id %d found", step, absent)
		}
		if step%97 == 0 {
			check(step)
		}
	}
	check(-1)
}
