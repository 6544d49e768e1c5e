package main

import (
	"fmt"
	"math/rand"

	"harmonia/internal/apps"
	"harmonia/internal/faults"
	"harmonia/internal/fleet"
	"harmonia/internal/hdl"
	"harmonia/internal/net"
)

// warmupSteps is the pre-load-budget serving stretch every workload
// opens with: 4 heartbeat steps (200 µs), the fleet5/fleet8 warmup.
const warmupSteps = 4

// workload is one benchmark timeline: a fleet shape, the open-loop
// traffic it carries step by step, and the control calls scheduled at
// step boundaries. Every field is a delta the repo's drills already
// exercise; nothing here reaches below the public fleet API.
type workload struct {
	name    string
	devices int
	steps   int
	// budget is the PR-load cap armed after the warmup steps (0 leaves
	// it unlimited).
	budget   int
	config   func(cfg *fleet.Config)
	services func(devices int) ([]fleet.Service, error)
	traffic  func(devices int, seed int64, step int) []fleet.Traffic
	// storm replays faults.DefaultStorm(devices, stormSeed) from the end
	// of the warmup.
	storm bool
	// drainEvery/reviveAfter schedule planned drains: every drainEvery
	// steps one healthy node is drained and revived reviveAfter steps
	// later (0 = none).
	drainEvery, reviveAfter int
}

// workloads lists the benchmark's timelines by name.
var workloads = map[string]workload{
	// storm-300: fleet5's budgeted-derived case; the serial barrier
	// (gossip probes with a flow snapshot on every probe) does the work.
	"storm-300": {
		name: "storm-300", devices: 300, steps: warmupSteps + 320, budget: 8, storm: true,
		config: func(cfg *fleet.Config) {
			cfg.GossipHealth = true
			cfg.GossipFanout = 32
			cfg.GossipPiggyback = 8
			cfg.RackP2C = true
			cfg.SnapshotEvery = 1
			cfg.DerivedShedding = true
			cfg.ShedStartMilliC = cfg.DegradeMilliC - 40_000
		},
		services: func(devices int) ([]fleet.Service, error) {
			lb, err := appService("layer4-lb", devices, net.IPv4(20, 0, 0, 1))
			lb.Stateful = true
			lb.Backends = backends()
			return []fleet.Service{lb}, err
		},
		traffic: func(_ int, seed int64, step int) []fleet.Traffic {
			return []fleet.Traffic{{Service: "layer4-lb", OfferedGbps: 400,
				PktBytes: 1024, Flows: 2048, Jitter: 0.2, Seed: trafficSeed(seed, step)}}
		},
	},
	// churn-120: DefaultConfig's central sweep and flat dispatch under
	// the fleet8 three-service mix, with the rebalancer armed and
	// planned drains whose live table reads pair with replays.
	"churn-120": {
		name: "churn-120", devices: 120, steps: 330, budget: 4,
		drainEvery: 40, reviveAfter: 20,
		config: func(cfg *fleet.Config) {
			cfg.SlotRes = hdl.Resources{LUT: 200_000, REG: 300_000, BRAM: 512, URAM: 96, DSP: 2_048}
			cfg.Rebalance = true
		},
		services: threeServiceMix,
		traffic: func(_ int, seed int64, step int) []fleet.Traffic {
			base := trafficSeed(seed, step)
			return []fleet.Traffic{
				{Service: "layer4-lb", OfferedGbps: 200, PktBytes: 1024, Flows: 2048, Jitter: 0.2, Seed: base},
				{Service: "retrieval", OfferedGbps: 150, PktBytes: 1024, Flows: 1024, Jitter: 0.2, Seed: base + 101},
				{Service: "sec-gateway", OfferedGbps: 50, PktBytes: 512, Flows: 512, Jitter: 0.2, Seed: base + 211},
			}
		},
	},
}

// cfg is the workload's Config: DefaultConfig plus its deltas, seeded.
func (w workload) cfg(seed int64) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Seed = seed
	if w.config != nil {
		w.config(&cfg)
	}
	return cfg
}

// trafficSeed derives one step's traffic seed from the workload seed,
// the drills' per-window derivation at heartbeat granularity.
func trafficSeed(seed int64, step int) int64 { return seed*1_000_003 + int64(step+1)*1000 }

// stormSeed derives the fault-schedule seed from the workload seed.
func stormSeed(seed int64) int64 { return seed*1_000_003 + 7 }

func appService(name string, replicas int, vip net.IPAddr) (fleet.Service, error) {
	info, err := apps.Lookup(name)
	if err != nil {
		return fleet.Service{}, err
	}
	return fleet.AppService(info, replicas, vip), nil
}

// backends is the stateful LB's initial backend pool.
func backends() []net.IPAddr {
	out := make([]net.IPAddr, 8)
	for i := range out {
		out[i] = net.IPv4(10, 2, 0, byte(i+1))
	}
	return out
}

// threeServiceMix is fleet8's co-resident service set.
func threeServiceMix(devices int) ([]fleet.Service, error) {
	lb, err := appService("layer4-lb", devices, net.IPv4(20, 0, 0, 1))
	if err != nil {
		return nil, err
	}
	lb.Class = fleet.ClassLatencyCritical
	lb.SLO = fleet.SLO{Availability: 0.999}
	lb.Stateful = true
	lb.Backends = backends()
	bulk, err := appService("retrieval", devices/2, net.IPv4(30, 0, 0, 1))
	if err != nil {
		return nil, err
	}
	bulk.Class = fleet.ClassBulk
	bulk.SLO = fleet.SLO{Availability: 0.90}
	sec, err := appService("sec-gateway", devices/4, net.IPv4(40, 0, 0, 1))
	if err != nil {
		return nil, err
	}
	sec.Class = fleet.ClassLatencyCritical
	sec.SLO = fleet.SLO{Availability: 0.999}
	return []fleet.Service{lb, bulk, sec}, nil
}

// control applies a workload's step-boundary schedule to one run.
type control struct {
	w     workload
	c     *fleet.Cluster
	nodes []*fleet.Node
	storm *faults.Schedule
	next  int // next storm injection
	rng   *rand.Rand
	// revive maps a step to the node drained reviveAfter steps before it.
	revive map[int]string
}

func newControl(w workload, c *fleet.Cluster, seed int64) (*control, error) {
	ct := &control{w: w, c: c, nodes: c.Nodes(), rng: rand.New(rand.NewSource(seed)), revive: map[int]string{}}
	if w.storm {
		spec := faults.DefaultStorm(w.devices, stormSeed(seed))
		spec.Start = c.Now() + warmupSteps*c.Config().Heartbeat
		s, err := faults.Storm(spec)
		if err != nil {
			return nil, err
		}
		ct.storm = s
	}
	return ct, nil
}

// after runs the control calls due at the boundary closing step, and
// reports how many it made. Injections due before the next step ends
// apply now, as the drills apply a window's injections at its start.
func (ct *control) after(step int) (int, error) {
	c := ct.c
	calls := 0
	if step == warmupSteps-1 && ct.w.budget > 0 {
		c.SetLoadBudget(ct.w.budget)
		calls++
	}
	if ct.storm != nil {
		due := c.Now() + c.Config().Heartbeat
		for ; ct.next < len(ct.storm.Injections) && ct.storm.Injections[ct.next].At < due; ct.next++ {
			inj := ct.storm.Injections[ct.next]
			if err := ct.inject(inj); err != nil {
				return calls, fmt.Errorf("injection %v: %w", inj, err)
			}
			calls++
		}
	}
	if id, ok := ct.revive[step]; ok {
		if err := c.Revive(c.Now(), id); err != nil {
			return calls, err
		}
		// Replicas still unplaced may land on the revived node; a
		// placement failure just leaves them pending.
		_, _ = c.Place(c.Now())
		calls += 2
	}
	if ct.w.drainEvery > 0 && (step+1)%ct.w.drainEvery == 0 {
		if id := ct.pickHealthy(); id != "" {
			if _, err := c.DrainNode(c.Now(), id); err != nil {
				return calls, err
			}
			ct.revive[step+ct.w.reviveAfter] = id
			calls++
		}
	}
	return calls, nil
}

// pickHealthy draws a seeded healthy node for a planned drain.
func (ct *control) pickHealthy() string {
	var ids []string
	for _, n := range ct.nodes {
		if n.State() == fleet.Healthy {
			ids = append(ids, n.ID)
		}
	}
	if len(ids) == 0 {
		return ""
	}
	return ids[ct.rng.Intn(len(ids))]
}

// inject maps one storm entry onto control-plane calls, as the chaos
// drill does.
func (ct *control) inject(inj faults.Injection) error {
	c := ct.c
	var n *fleet.Node
	if inj.Node >= 0 {
		if inj.Node >= len(ct.nodes) {
			return fmt.Errorf("targets node %d of %d", inj.Node, len(ct.nodes))
		}
		n = ct.nodes[inj.Node]
	}
	switch inj.Kind {
	case faults.KillNode:
		return c.Kill(n.ID)
	case faults.LinkDown:
		return c.CutLink(c.Now(), n.ID)
	case faults.LinkUp:
		if err := c.Revive(c.Now(), n.ID); err != nil {
			return err
		}
		_, _ = c.Place(c.Now())
		return nil
	case faults.ThermalSet:
		if inj.Arg == 0 {
			return c.Cool(n.ID)
		}
		return c.Overheat(n.ID, inj.Arg)
	case faults.CorruptStart:
		limit := int(inj.Arg)
		n.Inst.SetWireFaultInjector(func(attempt int, buf []byte) []byte {
			if attempt < limit && len(buf) > 0 {
				buf[0] ^= 0xFF
			}
			return buf
		})
		return nil
	case faults.CorruptEnd:
		n.Inst.SetWireFaultInjector(nil)
		return nil
	case faults.PRFaultStart:
		fail := faults.LoadFailureFn(c.Config().Seed, inj.Prob)
		c.SetPRLoadFault(func(node, tenant string, _, attempt int) bool {
			return fail(node, tenant, attempt)
		})
		return nil
	case faults.PRFaultEnd:
		c.SetPRLoadFault(nil)
		return nil
	case faults.DrainBackend:
		_, err := c.RemoveBackend("layer4-lb", backends()[inj.Arg], false)
		return err
	}
	return fmt.Errorf("unknown injection kind %q", inj.Kind)
}
