package core

import "fmt"

// Controller is the HardHarvest hardware controller: a centralized module
// reached over a dedicated low-latency control network (§4.1.8). It owns the
// physical RQ, the Queue Managers, and the core↔QM bindings (each core's
// MyManager register), and it makes all harvesting and reclamation decisions
// in hardware.
type Controller struct {
	rq     *RQ
	maxQMs int
	// qms is the QM register file, indexed by VMID; nil marks a free ID.
	qms []*QueueManager
	// vmOrder preserves registration order for deterministic decisions.
	vmOrder []VMID

	// cores holds each core's controller-side registers, indexed by CoreID.
	cores []coreSlot

	// nextHarvest rotates loan targets across Harvest VMs.
	nextHarvest int
	// hvmScratch backs harvestVMsWithWork: the candidate list is rebuilt on
	// every idle-primary dequeue, so it reuses one buffer instead of
	// allocating per call.
	hvmScratch []VMID
	// targetScratch backs Rebalance's per-VM chunk targets, aligned with
	// vmOrder.
	targetScratch []int

	// Stats.
	loans    uint64
	reclaims uint64
	wakes    uint64
}

// coreSlot is one core's registers in the controller: its MyManager binding
// and the run state the controller tracks for it. The zero slot is an
// unbound, idle core.
type coreSlot struct {
	vm        VMID // MyManager register, valid when bound
	state     CoreState
	running   *Request
	runningVM VMID // VM of the running request
	lastVM    VMID // VM whose state is resident in the core's caches, valid when hasLast
	bound     bool
	hasLast   bool
}

// maxID bounds CoreID and VMID values: controller state is stored densely,
// indexed by ID, like the register files it models.
const maxID = 1 << 20

// goIdle clears the core's running request and marks it idle.
func (s *coreSlot) goIdle() {
	s.running = nil
	s.runningVM = 0
	s.state = CoreIdle
}

// assign puts r, of vm, on the core in the given state and reports whether
// that moves the core across VMs.
func (s *coreSlot) assign(r *Request, vm VMID, state CoreState) (crossVM bool) {
	crossVM = s.hasLast && s.lastVM != vm
	s.running, s.runningVM = r, vm
	s.hasLast, s.lastVM = true, vm
	s.state = state
	return crossVM
}

// NewController builds a controller with the given RQ geometry and QM count
// (Table 1 defaults: 32 chunks x 64 entries, 16 QMs).
func NewController(numChunks, chunkEntries, maxQMs int) *Controller {
	if maxQMs <= 0 {
		panic("core: controller needs at least one QM")
	}
	return &Controller{rq: NewRQ(numChunks, chunkEntries), maxQMs: maxQMs}
}

// DefaultController builds a controller with Table 1 parameters.
func DefaultController() *Controller {
	return NewController(DefaultNumChunks, DefaultChunkEntries, 16)
}

// RQ exposes the physical request queue (read-only use intended).
func (c *Controller) RQ() *RQ { return c.rq }

// QM returns the Queue Manager serving vm, or nil.
func (c *Controller) QM(vm VMID) *QueueManager {
	if vm < 0 || int(vm) >= len(c.qms) {
		return nil
	}
	return c.qms[vm]
}

// slot returns core's registers, or nil when core is outside the table.
func (c *Controller) slot(core CoreID) *coreSlot {
	if core < 0 || int(core) >= len(c.cores) {
		return nil
	}
	return &c.cores[core]
}

// VMs returns the registered VMs in registration order.
func (c *Controller) VMs() []VMID {
	out := make([]VMID, len(c.vmOrder))
	copy(out, c.vmOrder)
	return out
}

// Loans reports the number of cross-VM core loans performed.
func (c *Controller) Loans() uint64 { return c.loans }

// Reclaims reports the number of preemptive core reclamations.
func (c *Controller) Reclaims() uint64 { return c.reclaims }

// AddVM registers a VM: it is assigned a Queue Manager and a VM State
// Register Set, and the RQ chunk shares are rebalanced (§4.1.2).
func (c *Controller) AddVM(vm VMID, isPrimary bool, mask HarvestMask) error {
	if vm < 0 || vm >= maxID {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if c.QM(vm) != nil {
		return fmt.Errorf("%w: %d", ErrVMExists, vm)
	}
	if len(c.vmOrder) >= c.maxQMs {
		return ErrNoQMAvail
	}
	qm := newQueueManager(vm, isPrimary, c.rq.NumChunks())
	qm.SetMask(mask)
	for int(vm) >= len(c.qms) {
		c.qms = append(c.qms, nil)
	}
	c.qms[vm] = qm
	c.vmOrder = append(c.vmOrder, vm)
	c.Rebalance()
	return nil
}

// RemoveVM deregisters a VM; its chunks return to the pool and are
// redistributed to the remaining VMs.
func (c *Controller) RemoveVM(vm VMID) error {
	qm := c.QM(vm)
	if qm == nil {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	for qm.rqMap.Len() > 0 {
		qm.rqMap.DropTail()
	}
	c.rq.release(vm)
	c.qms[vm] = nil
	for i, v := range c.vmOrder {
		if v == vm {
			c.vmOrder = append(c.vmOrder[:i], c.vmOrder[i+1:]...)
			break
		}
	}
	for _, core := range qm.boundCores {
		c.cores[core] = coreSlot{}
	}
	c.Rebalance()
	return nil
}

// BindCore sets a core's MyManager register to vm's QM.
func (c *Controller) BindCore(core CoreID, vm VMID) error {
	qm := c.QM(vm)
	if qm == nil {
		return fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if core < 0 || core >= maxID {
		return fmt.Errorf("%w: %d", ErrUnknownCore, core)
	}
	for int(core) >= len(c.cores) {
		c.cores = append(c.cores, coreSlot{})
	}
	s := &c.cores[core]
	if s.bound {
		return fmt.Errorf("%w: core %d", ErrCoreBound, core)
	}
	*s = coreSlot{bound: true, vm: vm, state: CoreIdle}
	qm.bindCore(core)
	c.Rebalance()
	return nil
}

// Binding reports the VM a core is bound to.
func (c *Controller) Binding(core CoreID) (VMID, bool) {
	if s := c.slot(core); s != nil && s.bound {
		return s.vm, true
	}
	return 0, false
}

// State reports a core's controller-tracked state.
func (c *Controller) State(core CoreID) CoreState {
	if s := c.slot(core); s != nil {
		return s.state
	}
	return CoreIdle
}

// Running reports the request a core currently executes (nil if none) and
// the VM it belongs to.
func (c *Controller) Running(core CoreID) (*Request, VMID) {
	if s := c.slot(core); s != nil {
		return s.running, s.runningVM
	}
	return nil, 0
}

// Rebalance recomputes each VM's chunk share in proportion to its bound
// cores (§4.1.2). VMs donate chunks from the tails of their subqueues;
// entries in donated chunks spill to the in-memory overflow subqueue.
func (c *Controller) Rebalance() {
	if len(c.vmOrder) == 0 {
		return
	}
	totalCores := 0
	for _, vm := range c.vmOrder {
		n := len(c.qms[vm].boundCores)
		if n == 0 {
			n = 1 // a coreless VM still gets a minimal share
		}
		totalCores += n
	}
	targets := c.targetScratch[:0]
	sum := 0
	for _, vm := range c.vmOrder {
		n := len(c.qms[vm].boundCores)
		if n == 0 {
			n = 1
		}
		t := c.rq.NumChunks() * n / totalCores
		if t < 1 {
			t = 1
		}
		targets = append(targets, t)
		sum += t
	}
	c.targetScratch = targets
	// Trim if the minimums overshoot the physical chunks.
	for sum > c.rq.NumChunks() {
		trimmed := false
		for i := range targets {
			if targets[i] > 1 {
				targets[i]--
				sum--
				trimmed = true
				if sum == c.rq.NumChunks() {
					break
				}
			}
		}
		if !trimmed {
			break
		}
	}
	// Shrink donors first so chunks return to the free pool.
	for i, vm := range c.vmOrder {
		qm := c.qms[vm]
		for qm.rqMap.Len() > targets[i] {
			ch := qm.rqMap.DropTail()
			c.rq.transfer(ch, -1)
		}
	}
	// Grow receivers from the pool.
	for i, vm := range c.vmOrder {
		qm := c.qms[vm]
		for qm.rqMap.Len() < targets[i] {
			ch := c.rq.allocFree(vm)
			if ch < 0 {
				break
			}
			qm.rqMap.AppendTail(ch)
		}
	}
	for _, vm := range c.vmOrder {
		c.qms[vm].setCapacityFromChunks(c.rq.ChunkEntries())
	}
}

// WakeDecision tells the cluster layer what the controller decided when new
// work arrived for a VM. It is passed by value on the hottest enqueue edge —
// the zero WakeDecision (Valid false) means "no action", so no per-enqueue
// heap allocation is needed to represent the common no-wake case.
type WakeDecision struct {
	// Core is the core to notify. Meaningless unless Valid is true.
	Core CoreID
	// Preempt is true when Core currently executes Harvest VM work and must
	// be interrupted and context-switched back to its Primary VM (§4.1.5).
	Preempt bool
	// Valid reports whether the controller issued a wake at all.
	Valid bool
}

// Enqueue stores a request arriving from the NIC into vm's subqueue
// (§4.1.3) and returns the controller's wake decision, if any
// (wake.Valid reports whether there is one).
func (c *Controller) Enqueue(vm VMID, r *Request) (toOverflow bool, wake WakeDecision, err error) {
	qm := c.QM(vm)
	if qm == nil {
		return false, WakeDecision{}, fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if r.VM != vm {
		return false, WakeDecision{}, fmt.Errorf("%w: request for VM %d enqueued to VM %d", ErrIsolation, r.VM, vm)
	}
	toOverflow = qm.enqueue(r)
	return toOverflow, c.notifyWork(qm), nil
}

// Unblock marks a blocked request ready again (the NIC received its network
// response) and returns the wake decision (§4.1.5).
func (c *Controller) Unblock(vm VMID, r *Request) (WakeDecision, error) {
	qm := c.QM(vm)
	if qm == nil {
		return WakeDecision{}, fmt.Errorf("%w: %d", ErrUnknownVM, vm)
	}
	if r.VM != vm {
		return WakeDecision{}, fmt.Errorf("%w: unblock across VMs", ErrIsolation)
	}
	if !qm.unblock(r) {
		return WakeDecision{}, fmt.Errorf("%w: unblock of %v request", ErrBadTransition, r.Status)
	}
	return c.notifyWork(qm), nil
}

// notifyWork implements the QM's new-work check: wake an idle bound core if
// one exists; otherwise, for a Primary VM, reclaim a loaned core (§4.1.5).
func (c *Controller) notifyWork(qm *QueueManager) WakeDecision {
	// Deterministic order: lowest core ID first (boundCores is ascending).
	var loaned CoreID = -1
	for _, core := range qm.boundCores {
		s := &c.cores[core]
		switch s.state {
		case CoreIdle:
			s.state = coreNotified
			c.wakes++
			return WakeDecision{Core: core, Valid: true}
		case CoreLoaned:
			if loaned < 0 {
				loaned = core
			}
		}
	}
	if qm.isPrimary && loaned >= 0 {
		c.cores[loaned].state = coreNotified
		c.reclaims++
		return WakeDecision{Core: loaned, Preempt: true, Valid: true}
	}
	return WakeDecision{}
}

// coreNotified is an internal state: a wake/interrupt is in flight and the
// core must not be chosen for another wake until it reaches the controller
// again via Preempt/Dequeue.
const coreNotified CoreState = 100

// PreemptCore services the hardware interrupt on a loaned core: the Harvest
// VM request it was running is returned, Ready, to the front of the Harvest
// VM's subqueue for another core to take (Figure 10). Returns that request.
func (c *Controller) PreemptCore(core CoreID) (*Request, error) {
	s := c.slot(core)
	if s == nil || s.running == nil {
		return nil, fmt.Errorf("%w: preempt of a core running nothing (core %d)", ErrBadTransition, core)
	}
	r := s.running
	hqm := c.QM(s.runningVM)
	if hqm == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownVM, s.runningVM)
	}
	if !hqm.preempt(r) {
		return nil, fmt.Errorf("%w: preempt of %v request", ErrBadTransition, r.Status)
	}
	// The core is between contexts until its next Dequeue; it no longer
	// counts as loaned (its Harvest request is back in the queue).
	s.goIdle()
	return r, nil
}

// Dequeue hands the core the oldest ready request of its bound VM. If the
// core is bound to a Primary VM with no ready work and allowLoan is set, the
// controller forwards the core to a Harvest VM's QM (§4.1.4). It returns the
// request (nil if none anywhere), the VM it belongs to, and whether this
// dequeue re-assigned the core across VMs (the cluster layer charges flush
// and context-switch costs for cross-VM transitions).
func (c *Controller) Dequeue(core CoreID, allowLoan bool) (r *Request, vm VMID, crossVM bool, err error) {
	s := c.slot(core)
	if s == nil || !s.bound {
		return nil, -1, false, fmt.Errorf("%w: %d", ErrUnknownCore, core)
	}
	ownVM := s.vm
	ownQM := c.qms[ownVM]
	if r := ownQM.dequeue(); r != nil {
		return r, ownVM, s.assign(r, ownVM, CoreRunningOwn), nil
	}
	if allowLoan && ownQM.isPrimary {
		// Forward the core's request for work to a Harvest VM QM,
		// round-robin over harvest VMs that have ready work.
		if harvest := c.harvestVMsWithWork(); len(harvest) > 0 {
			hvm := harvest[c.nextHarvest%len(harvest)]
			c.nextHarvest++
			if hr := c.qms[hvm].dequeue(); hr != nil {
				c.loans++
				return hr, hvm, s.assign(hr, hvm, CoreLoaned), nil
			}
		}
	}
	s.goIdle()
	return nil, ownVM, false, nil
}

// LastVM reports the VM whose microarchitectural state was most recently
// resident in the core's private caches/TLBs.
func (c *Controller) LastVM(core CoreID) (VMID, bool) {
	if s := c.slot(core); s != nil && s.hasLast {
		return s.lastVM, true
	}
	return 0, false
}

// harvestVMsWithWork returns the Harvest VMs holding ready work, in
// registration order. The result aliases a controller-owned scratch buffer
// valid until the next call.
func (c *Controller) harvestVMsWithWork() []VMID {
	out := c.hvmScratch[:0]
	for _, vm := range c.vmOrder {
		qm := c.qms[vm]
		if !qm.isPrimary && qm.hasReady() {
			out = append(out, vm)
		}
	}
	c.hvmScratch = out
	return out
}

// Complete informs the QM that the core finished its request; the slot is
// freed and the core becomes idle (until its next Dequeue).
func (c *Controller) Complete(core CoreID, r *Request) error {
	s := c.slot(core)
	if s == nil || s.running == nil || s.running != r {
		return fmt.Errorf("%w: complete of a request the core is not running", ErrBadTransition)
	}
	qm := c.QM(s.runningVM)
	if qm == nil || !qm.complete(r) {
		return fmt.Errorf("%w: request not found in subqueue", ErrBadTransition)
	}
	s.goIdle()
	return nil
}

// Block informs the QM that the core's request stalled on I/O. The request's
// pointer stays in the subqueue, marked Blocked; the core becomes idle.
func (c *Controller) Block(core CoreID, r *Request) error {
	s := c.slot(core)
	if s == nil || s.running == nil || s.running != r {
		return fmt.Errorf("%w: block of a request the core is not running", ErrBadTransition)
	}
	qm := c.QM(s.runningVM)
	if qm == nil || !qm.block(r) {
		return fmt.Errorf("%w: block of %v request", ErrBadTransition, r.Status)
	}
	s.goIdle()
	return nil
}

// LoanedCores reports how many of vm's bound cores are currently on loan.
func (c *Controller) LoanedCores(vm VMID) int {
	qm := c.QM(vm)
	if qm == nil {
		return 0
	}
	n := 0
	for _, core := range qm.boundCores {
		if c.cores[core].state == CoreLoaned {
			n++
		}
	}
	return n
}
