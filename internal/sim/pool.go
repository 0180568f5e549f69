package sim

// PoolConfig parameterises the VM pool of §5.2.
type PoolConfig struct {
	// Size is the steady-state number of pre-allocated VMs, p.
	Size int
	// ProvisionDelayMillis is how long the IaaS provider takes to start
	// a fresh VM instance — "on the order of minutes" (§5.2). Default
	// 90 s.
	ProvisionDelayMillis Millis
	// HandoffDelayMillis is the time to hand a pre-allocated VM to the
	// requester — "seconds" (§5.2). Default 2 s.
	HandoffDelayMillis Millis
	// Capacity is the CPU capacity of provisioned VMs.
	Capacity float64
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.ProvisionDelayMillis == 0 {
		c.ProvisionDelayMillis = 90_000
	}
	if c.HandoffDelayMillis == 0 {
		c.HandoffDelayMillis = 2_000
	}
	if c.Capacity == 0 {
		c.Capacity = 1.0
	}
	return c
}

// Pool is the VM pool: it decouples requesting a VM from provisioning it
// by keeping Size pre-allocated instances ready. Acquire hands over a
// pooled VM after the handoff delay, or falls back to raw provisioning
// when the pool is exhausted; the pool refills asynchronously.
type Pool struct {
	sim  *Sim
	cfg  PoolConfig
	free []*VM
	// pendingRefills counts provisioning requests in flight.
	pendingRefills int
	nextID         int
	// waiters queue Acquire callbacks when the pool is empty so that a
	// burst of requests drains refills in FIFO order.
	waiters []func(*VM)
	// stats
	exhaustedMisses int
}

// NewPool pre-allocates the configured number of VMs (available
// immediately at time zero, as the pool is filled "ahead of time").
// A negative Size is normalised to zero: no pre-allocation, so every
// Acquire pays the raw provisioning delay — the no-pool baseline.
func NewPool(s *Sim, cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	if cfg.Size < 0 {
		cfg.Size = 0
	}
	p := &Pool{sim: s, cfg: cfg}
	for i := 0; i < cfg.Size; i++ {
		p.free = append(p.free, p.newVM())
	}
	return p
}

func (p *Pool) newVM() *VM {
	p.nextID++
	return NewVM(p.sim, p.nextID, p.cfg.Capacity)
}

// Available returns the number of idle pooled VMs.
func (p *Pool) Available() int { return len(p.free) }

// ExhaustedMisses returns how many Acquire calls found the pool empty and
// had to wait for raw provisioning.
func (p *Pool) ExhaustedMisses() int { return p.exhaustedMisses }

// Acquire requests a VM, invoking ready when it is available: after the
// handoff delay when a pooled VM exists, or after the full provisioning
// delay when the pool is exhausted. The pool refills itself to Size
// asynchronously after each acquisition.
func (p *Pool) Acquire(ready func(*VM)) {
	if len(p.free) > 0 {
		vm := p.free[0]
		p.free = p.free[1:]
		p.refill()
		p.sim.After(p.cfg.HandoffDelayMillis, func() { ready(vm) })
		return
	}
	// Pool exhausted: the request waits for a refill (which takes the
	// raw provisioning delay).
	p.exhaustedMisses++
	p.waiters = append(p.waiters, ready)
	p.refill()
}

// refill tops the pool back up to Size, counting in-flight requests.
func (p *Pool) refill() {
	want := p.cfg.Size - len(p.free) - p.pendingRefills + len(p.waiters)
	for i := 0; i < want; i++ {
		p.pendingRefills++
		p.sim.After(p.cfg.ProvisionDelayMillis, func() {
			p.pendingRefills--
			vm := p.newVM()
			if len(p.waiters) > 0 {
				ready := p.waiters[0]
				p.waiters = p.waiters[1:]
				ready(vm)
				return
			}
			p.free = append(p.free, vm)
		})
	}
}

// Resize changes the steady-state pool size (the paper notes p can be
// adapted over time, §5.2). Shrinking drops idle VMs immediately;
// growing triggers provisioning.
func (p *Pool) Resize(size int) {
	p.cfg.Size = size
	if len(p.free) > size {
		p.free = p.free[:size]
	}
	p.refill()
}
