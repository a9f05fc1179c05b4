package core

import (
	"errors"
	"testing"
)

// TestOutOfRangeIDs queries every accessor and transition with core and VM
// IDs the controller does not know: negative, huge, and in range but never
// bound. Each must answer with the zero value or an error, never a panic.
func TestOutOfRangeIDs(t *testing.T) {
	cores := []struct {
		name  string
		id    CoreID
		valid bool // a legal ID that was never bound
	}{
		{"negative", -1, false},
		{"most-negative", -1 << 62, false},
		{"huge", 1 << 40, false},
		{"limit", maxID, false},
		{"gap", 5, true},
		{"past-table", 500, true},
	}
	for _, tc := range cores {
		t.Run("core-"+tc.name, func(t *testing.T) {
			c := newTestController(t)
			if st := c.State(tc.id); st != CoreIdle {
				t.Errorf("State = %v, want idle", st)
			}
			if r, vm := c.Running(tc.id); r != nil || vm != 0 {
				t.Errorf("Running = %v %d", r, vm)
			}
			if vm, ok := c.Binding(tc.id); ok || vm != 0 {
				t.Errorf("Binding = %d %v", vm, ok)
			}
			if vm, ok := c.LastVM(tc.id); ok || vm != 0 {
				t.Errorf("LastVM = %d %v", vm, ok)
			}
			if _, _, _, err := c.Dequeue(tc.id, true); !errors.Is(err, ErrUnknownCore) {
				t.Errorf("Dequeue err = %v", err)
			}
			r := req(1, 1)
			if err := c.Complete(tc.id, r); !errors.Is(err, ErrBadTransition) {
				t.Errorf("Complete err = %v", err)
			}
			if err := c.Block(tc.id, r); !errors.Is(err, ErrBadTransition) {
				t.Errorf("Block err = %v", err)
			}
			if err := c.Complete(tc.id, nil); !errors.Is(err, ErrBadTransition) {
				t.Errorf("Complete(nil) err = %v", err)
			}
			if _, err := c.PreemptCore(tc.id); !errors.Is(err, ErrBadTransition) {
				t.Errorf("PreemptCore err = %v", err)
			}
			err := c.BindCore(tc.id, 1)
			if tc.valid && err != nil {
				t.Errorf("BindCore of a free legal ID err = %v", err)
			}
			if !tc.valid && !errors.Is(err, ErrUnknownCore) {
				t.Errorf("BindCore err = %v, want ErrUnknownCore", err)
			}
		})
	}

	vms := []struct {
		name  string
		id    VMID
		valid bool // a legal ID that was never added
	}{
		{"negative", -1, false},
		{"most-negative", -1 << 62, false},
		{"huge", 1 << 40, false},
		{"limit", maxID, false},
		{"never-added", 7, true},
		{"past-table", 300, true},
	}
	for _, tc := range vms {
		t.Run("vm-"+tc.name, func(t *testing.T) {
			c := newTestController(t)
			if qm := c.QM(tc.id); qm != nil {
				t.Errorf("QM = %v, want nil", qm)
			}
			if n := c.LoanedCores(tc.id); n != 0 {
				t.Errorf("LoanedCores = %d", n)
			}
			r := req(1, tc.id)
			if _, _, err := c.Enqueue(tc.id, r); !errors.Is(err, ErrUnknownVM) {
				t.Errorf("Enqueue err = %v", err)
			}
			if _, err := c.Unblock(tc.id, r); !errors.Is(err, ErrUnknownVM) {
				t.Errorf("Unblock err = %v", err)
			}
			if err := c.RemoveVM(tc.id); !errors.Is(err, ErrUnknownVM) {
				t.Errorf("RemoveVM err = %v", err)
			}
			if err := c.BindCore(20, tc.id); !errors.Is(err, ErrUnknownVM) {
				t.Errorf("BindCore err = %v", err)
			}
			err := c.AddVM(tc.id, false, HarvestMask{})
			if tc.valid && err != nil {
				t.Errorf("AddVM of a free legal ID err = %v", err)
			}
			if !tc.valid && !errors.Is(err, ErrUnknownVM) {
				t.Errorf("AddVM err = %v, want ErrUnknownVM", err)
			}
		})
	}
}

// TestRemoveVMResetsCores: a removed VM's cores forget their binding and
// run state, can be bound again, and the VM's ID can be registered anew.
func TestRemoveVMResetsCores(t *testing.T) {
	c := newTestController(t)
	c.Enqueue(2, req(100, 2))
	if r, _, _, _ := c.Dequeue(8, false); r == nil {
		t.Fatal("harvest core found no work")
	}
	if err := c.RemoveVM(2); err != nil {
		t.Fatal(err)
	}
	for _, core := range []CoreID{8, 9} {
		if _, ok := c.Binding(core); ok {
			t.Fatalf("core %d still bound", core)
		}
		if r, _ := c.Running(core); r != nil {
			t.Fatalf("core %d still runs %v", core, r)
		}
		if _, ok := c.LastVM(core); ok {
			t.Fatalf("core %d keeps its last VM", core)
		}
		if _, _, _, err := c.Dequeue(core, true); !errors.Is(err, ErrUnknownCore) {
			t.Fatalf("Dequeue on unbound core %d err = %v", core, err)
		}
	}
	if err := c.AddVM(2, false, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.BindCore(9, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.QM(2).BoundCores(); got != 1 {
		t.Fatalf("re-added VM has %d bound cores, want 1", got)
	}
}

// TestWakeOrderLowestCoreFirst pins the wake order on cores bound out of
// order and with gaps: Enqueue wakes the lowest idle core first, and a
// Primary VM with every core busy reclaims its lowest loaned core first.
func TestWakeOrderLowestCoreFirst(t *testing.T) {
	c := DefaultController()
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddVM(2, false, HarvestMask{}); err != nil {
		t.Fatal(err)
	}
	for _, core := range []CoreID{8, 3, 5} {
		if err := c.BindCore(core, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BindCore(1, 2); err != nil {
		t.Fatal(err)
	}

	// Idle wakes come out ascending, then nothing is left to wake.
	for i, want := range []CoreID{3, 5, 8} {
		_, wake, err := c.Enqueue(1, req(ReqID(i+1), 1))
		if err != nil {
			t.Fatal(err)
		}
		if !wake.Valid || wake.Preempt || wake.Core != want {
			t.Fatalf("wake %d = %+v, want idle core %d", i, wake, want)
		}
	}
	if _, wake, _ := c.Enqueue(1, req(4, 1)); wake.Valid {
		t.Fatalf("wake with every core notified = %+v", wake)
	}
	// Drain the primary work so the notified cores settle idle.
	for _, core := range []CoreID{3, 5, 8} {
		for {
			r, _, _, _ := c.Dequeue(core, false)
			if r == nil {
				break
			}
			if err := c.Complete(core, r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Loan 8 then 5 (not in ID order), keep 3 busy with its own work.
	for i := ReqID(0); i < 4; i++ {
		c.Enqueue(2, req(100+i, 2))
	}
	for _, core := range []CoreID{8, 5} {
		if _, vm, _, _ := c.Dequeue(core, true); vm != 2 || c.State(core) != CoreLoaned {
			t.Fatalf("core %d not loaned (vm %d, state %v)", core, vm, c.State(core))
		}
	}
	c.Enqueue(1, req(10, 1))
	if r, _, _, _ := c.Dequeue(3, false); r == nil {
		t.Fatal("core 3 found no own work")
	}
	if n := c.LoanedCores(1); n != 2 {
		t.Fatalf("LoanedCores = %d, want 2", n)
	}
	// Reclamation picks the lowest loaned core, then the next one.
	for i, want := range []CoreID{5, 8} {
		_, wake, err := c.Enqueue(1, req(ReqID(20+i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if !wake.Valid || !wake.Preempt || wake.Core != want {
			t.Fatalf("reclaim %d = %+v, want preempt of core %d", i, wake, want)
		}
	}
}
