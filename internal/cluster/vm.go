package cluster

import (
	"fmt"

	"repro/internal/resource"
	"repro/internal/trace"
)

// VMState is the lifecycle state of a virtual machine.
type VMState uint8

// VM lifecycle states.
const (
	VMRunning VMState = iota + 1
	VMPaused
	VMMigrating
	VMDestroyed
)

// String names the state.
func (s VMState) String() string {
	switch s {
	case VMRunning:
		return "running"
	case VMPaused:
		return "paused"
	case VMMigrating:
		return "migrating"
	case VMDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// VM is a virtual machine hosted on a PM. Consumers inside a VM pay the
// guest virtualization overhead and contend with collocated VMs through
// the host's two-level kernel.
type VM struct {
	name  string
	host  *PM
	memMB float64
	// vcpus, state and dirty share one word: every VM pays for share.
	vcpus int32
	state VMState
	// dirty marks the members' second-level share as out of date after
	// a member's cap or weight change; see PM.request.
	dirty  bool
	weight float64
	capIO  resource.Vector // DRM-installed VM-level caps; zero = uncapped
	// share is the VM's top-level allocation in raw host units at its
	// host's last full solve, which the members divide among themselves.
	share resource.Vector

	consumers []*Consumer

	pauseSpan trace.Span // open while the VM is paused
}

// Name returns the VM's name.
func (vm *VM) Name() string { return vm.name }

// IsVirtual reports true.
func (vm *VM) IsVirtual() bool { return true }

// Machine returns the current physical host.
func (vm *VM) Machine() *PM { return vm.host }

// State returns the lifecycle state.
func (vm *VM) State() VMState { return vm.state }

// MemoryMB returns the configured guest memory.
func (vm *VM) MemoryMB() float64 { return vm.memMB }

// UsefulCapacity is the VM's full-speed capacity in useful units under
// its overhead profile, assuming an otherwise idle host.
func (vm *VM) UsefulCapacity() resource.Vector {
	if vm.host == nil {
		return resource.Vector{} // destroyed: no capacity anywhere
	}
	host := vm.host.capacity
	overhead := XenGuestOverhead()
	cpu := float64(vm.vcpus)
	if hc := host.Get(resource.CPU); hc < cpu {
		cpu = hc
	}
	return resource.NewVector(
		cpu*overhead.CPU,
		vm.memMB,
		host.Get(resource.DiskIO)*overhead.Disk,
		host.Get(resource.NetIO)*overhead.Net,
	)
}

// Consumers returns the consumers currently attached to the VM, as the
// VM's own list; see Node.
func (vm *VM) Consumers() []*Consumer { return vm.consumers }

// Start begins executing a consumer inside the VM. Starting work on a
// paused VM is allowed; it simply makes no progress until Resume.
func (vm *VM) Start(c *Consumer) error {
	if c == nil {
		return fmt.Errorf("cluster: %s: Start(nil)", vm.name)
	}
	if c.state == consumerRunning {
		return fmt.Errorf("cluster: %s: consumer %q already running on %s", vm.name, c.Name, c.Node().Name())
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: %s: cannot start work while migrating", vm.name)
	}
	if vm.host == nil {
		return fmt.Errorf("cluster: %s: VM destroyed (host failed)", vm.name)
	}
	if vm.host.Off() {
		return fmt.Errorf("cluster: %s: host %s powered off", vm.name, vm.host.name)
	}
	pm := vm.host
	pm.settle()
	c.state = consumerRunning
	c.host = pm
	c.vm = vm
	c.remaining = c.Work
	c.lastSettle = pm.cluster.engine.Now()
	vm.consumers = append(vm.consumers, c)
	pm.update()
	return nil
}

// Pause freezes the VM: all of its consumers stop progressing and stop
// consuming CPU and I/O (the memory reservation remains). This is one of
// the IPS interference-mitigation actions.
func (vm *VM) Pause() error {
	if vm.host == nil {
		return fmt.Errorf("cluster: %s: VM destroyed", vm.name)
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: %s: cannot pause while migrating", vm.name)
	}
	if vm.state == VMPaused {
		return nil
	}
	vm.host.settle()
	vm.state = VMPaused
	vm.host.update()
	cl := vm.host.cluster
	cl.mVMPauses.Inc()
	if cl.tracer != nil {
		vm.pauseSpan = cl.tracer.Begin(vm.name, "vm", "paused")
	}
	return nil
}

// Resume unfreezes a paused VM.
func (vm *VM) Resume() error {
	if vm.host == nil {
		return fmt.Errorf("cluster: %s: VM destroyed", vm.name)
	}
	if vm.state == VMMigrating {
		return fmt.Errorf("cluster: %s: cannot resume while migrating", vm.name)
	}
	if vm.state == VMRunning {
		return nil
	}
	vm.host.settle()
	vm.state = VMRunning
	vm.host.update()
	vm.pauseSpan.End()
	vm.pauseSpan = trace.Span{}
	return nil
}

// SetWeight changes the VM's host-level fair-share weight (defaults to
// its vCPU count).
func (vm *VM) SetWeight(w float64) {
	if vm.host == nil {
		return
	}
	vm.host.settle()
	if w <= 0 {
		w = float64(vm.vcpus)
	}
	vm.weight = w
	vm.host.update()
}

// SetCap installs VM-level CPU/disk/network caps (the DRM's coarse
// actuator, akin to Xen's credit scheduler cap plus blkio throttling).
// Zero components remove the corresponding cap.
func (vm *VM) SetCap(cap resource.Vector) {
	if vm.host == nil {
		return
	}
	vm.host.settle()
	vm.capIO = cap
	vm.host.update()
}

// Cap returns the currently installed VM-level cap.
func (vm *VM) Cap() resource.Vector { return vm.capIO }

// activityLevel estimates how busy the VM is, in [0, 1]; it drives the
// dirty-page rate during live migration.
func (vm *VM) activityLevel() float64 {
	if vm.state != VMRunning || len(vm.consumers) == 0 {
		return 0
	}
	vm.host.solve()
	level := 0.0
	for _, c := range vm.consumers {
		level += c.speed
	}
	if level > 1 {
		level = 1
	}
	return level
}
