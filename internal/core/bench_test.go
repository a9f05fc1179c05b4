package core

import "testing"

// BenchmarkControllerCycle times one harvesting round trip through the
// controller on a 2-VM, 16-core server: a Harvest request arrives, an idle
// Primary core is loaned to it, a Primary request arrives while every other
// Primary core is busy and reclaims the loaned core by preemption, and both
// requests complete. The controller's state is the same after every
// iteration, so the cycle must not allocate.
func BenchmarkControllerCycle(b *testing.B) {
	c := DefaultController()
	if err := c.AddVM(1, true, HarvestMask{}); err != nil {
		b.Fatal(err)
	}
	if err := c.AddVM(2, false, HarvestMask{}); err != nil {
		b.Fatal(err)
	}
	for core := CoreID(0); core < 16; core++ {
		vm := VMID(1)
		if core >= 12 {
			vm = 2
		}
		if err := c.BindCore(core, vm); err != nil {
			b.Fatal(err)
		}
	}
	// Primary cores 1-11 stay busy, so only core 0 can be loaned.
	for core := CoreID(1); core < 12; core++ {
		c.Enqueue(1, req(ReqID(core), 1))
		if r, _, _, _ := c.Dequeue(core, false); r == nil {
			b.Fatalf("core %d found no work", core)
		}
	}
	const harvestCore = 12
	p, h := req(100, 1), req(200, 2)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Enqueue(2, h); err != nil {
			b.Fatal(err)
		}
		if r, _, _, _ := c.Dequeue(0, true); r != h {
			b.Fatal("core 0 was not loaned")
		}
		if _, wake, _ := c.Enqueue(1, p); !wake.Preempt || wake.Core != 0 {
			b.Fatalf("wake = %+v, want preempt of core 0", wake)
		}
		if _, err := c.PreemptCore(0); err != nil {
			b.Fatal(err)
		}
		if r, _, _, _ := c.Dequeue(0, true); r != p {
			b.Fatal("reclaimed core did not take the primary request")
		}
		if err := c.Complete(0, p); err != nil {
			b.Fatal(err)
		}
		if r, _, _, _ := c.Dequeue(harvestCore, false); r != h {
			b.Fatal("harvest core did not take the preempted request")
		}
		if err := c.Complete(harvestCore, h); err != nil {
			b.Fatal(err)
		}
	}
}
