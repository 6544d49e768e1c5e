package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"harmonia/internal/apps"
	"harmonia/internal/device"
	"harmonia/internal/fleet"
	"harmonia/internal/metrics"
	"harmonia/internal/platform"
)

// Layers the driver times, in step order. Each span covers exactly one
// call (or one scheduled batch of control calls) the driver makes into
// the fleet: prepare is PreparePhase/PrepareMultiPhase, run is
// Phase.Run, barrier is the RunMonitorUntil that fires the step's one
// heartbeat, control is the step-boundary schedule.
const (
	layerPrepare = iota
	layerRun
	layerBarrier
	layerControl
	numLayers
)

// span is one timed call into a layer, kept in memory for the run.
type span struct {
	layer uint8
	// step is the parent: the heartbeat step that made the call.
	step       int32
	start, end time.Duration // since the loop started
	// allocs counts heap objects allocated inside the span (prepare and
	// run only).
	allocs uint64
}

// rep is one full run of a workload: set-up, the stepped loop and, when
// traced, the per-layer probes.
type rep struct {
	traced bool

	setup, build, warm time.Duration
	loop               time.Duration
	stepTimes          []time.Duration
	spans              []span
	liveHeap           uint64
	gcCycles           uint64
	gcPause            time.Duration
	packets            int64
	controlCalls       int

	// Simulated outcomes over the loop.
	sent, healthy, dropped int64
	lat                    metrics.Histogram
	digest                 uint64

	// Counters over the loop.
	cmd                             fleet.CmdPathStats
	gossipTicks                     int64
	gossipProbes, gossipDigests     int64
	failovers, migLive, migSnapshot int
	prloadPeak, prloadQueued        int

	// Post-loop probes (traced runs).
	commission                time.Duration // mean per Commission
	readRow0, readRow, health time.Duration // mean per call
	tableEntries              float64       // mean entries per table
}

// gateError is a failed correctness gate.
type gateError struct{ msg string }

func (e *gateError) Error() string { return "gate: " + e.msg }

func gatef(format string, args ...any) error { return &gateError{fmt.Sprintf(format, args...)} }

// allocSample reads the cumulative heap-object allocation count
// without stopping the world.
var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// runOnce executes one rep of w under seed.
func runOnce(w workload, seed int64, traced bool) (*rep, error) {
	r := &rep{traced: traced}
	cfg := w.cfg(seed)
	svcs, err := w.services(w.devices)
	if err != nil {
		return nil, err
	}

	runtime.GC()
	t0 := time.Now()
	c, err := fleet.BuildCoResidentCluster(cfg, svcs, w.devices)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	t1 := time.Now()
	c.RunMonitorUntil(2 * cfg.ReconfigTime)
	t2 := time.Now()
	r.build, r.warm, r.setup = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)

	for _, rp := range c.Replicas() {
		if rp.Node == "" || rp.ReadyAt > c.Now() {
			return nil, gatef("replica %s not placed and matured before the loop (node %q, ready %v, now %v)",
				rp.Name(), rp.Node, rp.ReadyAt, c.Now())
		}
	}
	if traced {
		if r.commission, err = timeCommission(cfg, svcs); err != nil {
			return nil, err
		}
	}
	if err := loop(w, seed, c, r); err != nil {
		return nil, err
	}
	if traced {
		if err := probeTables(c, svcs, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loop runs the stepped timeline: per step, prepare one heartbeat
// minus 1 ps of traffic, run it, fire the step's heartbeat barrier,
// then apply the control calls due at the boundary. Only the driver's
// own calls are timed; the simulation never sees the clock.
func loop(w workload, seed int64, c *fleet.Cluster, r *rep) error {
	ct, err := newControl(w, c, seed)
	if err != nil {
		return err
	}
	svcs := c.Services()
	hb := c.Config().Heartbeat
	preRouter, preCmd, preGossip := c.RouterStats(), c.CmdPath(), c.GossipStats()
	preFailovers, preMigrations := len(c.Failovers()), len(c.Migrations())
	h := fnv.New64a()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	r.stepTimes = make([]time.Duration, 0, w.steps)
	if r.traced {
		r.spans = make([]span, 0, numLayers*w.steps)
	}

	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }
	for s := 0; s < w.steps; s++ {
		var a0, a1, a2 uint64
		if r.traced {
			a0 = heapAllocs()
		}
		t0 := since()
		ph, err := c.PrepareMultiPhase(hb-1, w.traffic(w.devices, seed, s))
		if err != nil {
			return fmt.Errorf("step %d prepare: %w", s, err)
		}
		t1 := since()
		if r.traced {
			a1 = heapAllocs()
		}
		st, err := ph.Run()
		t2 := since()
		if r.traced {
			a2 = heapAllocs()
		}
		if err != nil {
			return fmt.Errorf("step %d run: %w", s, err)
		}
		c.RunMonitorUntil(c.Now() + 1)
		t3 := since()
		calls, err := ct.after(s)
		if err != nil {
			return fmt.Errorf("step %d control: %w", s, err)
		}
		t4 := since()
		r.stepTimes = append(r.stepTimes, t4-t0)
		if r.traced {
			r.spans = append(r.spans,
				span{layer: layerPrepare, step: int32(s), start: t0, end: t1, allocs: a1 - a0},
				span{layer: layerRun, step: int32(s), start: t1, end: t2, allocs: a2 - a1},
				span{layer: layerBarrier, step: int32(s), start: t2, end: t3},
				span{layer: layerControl, step: int32(s), start: t3, end: t4})
		}
		r.controlCalls += calls

		if st.Sent != st.Served+st.Dropped {
			return gatef("step %d: sent %d != served %d + dropped %d", s, st.Sent, st.Served, st.Dropped)
		}
		r.packets += st.Sent
		for _, v := range []int64{st.Sent, st.Served, st.Dropped, st.Bytes, int64(st.P50), int64(st.P99)} {
			put(v)
		}
		for _, name := range svcs {
			r.lat.Merge(c.ServiceWindowLatencies(name))
		}
	}
	r.loop = time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	r.liveHeap = ms2.HeapAlloc
	runtime.KeepAlive(c)

	post := c.RouterStats()
	r.sent = post.Sent - preRouter.Sent
	r.healthy = post.HealthyServed - preRouter.HealthyServed
	r.dropped = post.Dropped - preRouter.Dropped
	if r.sent != (post.Served-preRouter.Served)+r.dropped {
		return gatef("loop: sent %d != served %d + dropped %d", r.sent, post.Served-preRouter.Served, r.dropped)
	}
	cmd, g := c.CmdPath(), c.GossipStats()
	r.cmd = fleet.CmdPathStats{Issued: cmd.Issued - preCmd.Issued, Retries: cmd.Retries - preCmd.Retries, Drops: cmd.Drops - preCmd.Drops}
	r.gossipTicks = g.Ticks - preGossip.Ticks
	r.gossipProbes, r.gossipDigests = g.Probes-preGossip.Probes, g.Digests-preGossip.Digests
	r.failovers = len(c.Failovers()) - preFailovers
	for _, m := range c.Migrations()[preMigrations:] {
		if m.Live {
			r.migLive++
		} else {
			r.migSnapshot++
		}
	}
	r.prloadPeak, r.prloadQueued = c.LoadBudgetPeak(), c.LoadsQueued()

	for _, v := range []int64{
		r.sent, r.healthy, r.dropped, r.lat.Count(), int64(r.lat.Percentile(50)), int64(r.lat.Percentile(99.9)),
		int64(r.failovers), int64(r.migLive), int64(r.migSnapshot), int64(len(c.Transitions())),
		int64(len(c.AlertEvents())), r.cmd.Issued, r.cmd.Retries, r.cmd.Drops, r.gossipProbes, r.gossipDigests,
	} {
		put(v)
	}
	r.digest = h.Sum64()
	return nil
}

// timeCommission times one Commission per catalog model into a fresh
// cluster shaped like the workload's. Models the services cannot adapt
// to are rejected by Commission and not counted.
func timeCommission(cfg fleet.Config, svcs []fleet.Service) (time.Duration, error) {
	c, err := fleet.NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	for _, s := range svcs {
		if err := c.AddService(s); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	n := 0
	for i, name := range platform.CatalogNames() {
		plat, err := platform.Lookup(name)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, err = c.Commission(fmt.Sprintf("probe-%02d-%s", i, name), plat)
		d := time.Since(t0)
		if err == nil {
			total += d
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("commission probe: no catalog model could be commissioned")
	}
	return total / time.Duration(n), nil
}

// probeTables times the device command path after the loop: one
// CheckHealth per healthy node, and a full TableRead of every healthy
// stateful replica's connection table — row 0 pays the table snapshot
// and encode, later rows the command path alone.
func probeTables(c *fleet.Cluster, svcs []fleet.Service, r *rep) error {
	stateful := map[string]bool{}
	for _, s := range svcs {
		stateful[s.Name] = s.Stateful
	}
	var health, row0, rows time.Duration
	var nHealth, nRow0, nRows, entries int
	for _, n := range c.Nodes() {
		if n.State() != fleet.Healthy {
			continue
		}
		t0 := time.Now()
		_, err := n.Inst.CheckHealth()
		health += time.Since(t0)
		nHealth++
		if err != nil {
			return fmt.Errorf("probe %s health: %w", n.ID, err)
		}
		for _, rp := range n.Replicas() {
			if !stateful[rp.Service] {
				continue
			}
			tid := fleet.FlowTableBase | uint32(rp.Tenant)
			t0 := time.Now()
			words, err := n.Inst.ReadTable(device.RBBRole, 0, tid, 0)
			row0 += time.Since(t0)
			nRow0++
			if err != nil {
				return fmt.Errorf("probe %s row 0: %w", rp.Name(), err)
			}
			words = append([]uint32(nil), words...)
			total, err := apps.FlowSnapshotWords(words)
			if err != nil {
				return fmt.Errorf("probe %s: %w", rp.Name(), err)
			}
			for row := uint32(1); len(words) < total; row++ {
				t0 := time.Now()
				next, err := n.Inst.ReadTable(device.RBBRole, 0, tid, row)
				rows += time.Since(t0)
				nRows++
				if err != nil || len(next) == 0 {
					return fmt.Errorf("probe %s row %d: truncated (%v)", rp.Name(), row, err)
				}
				words = append(words, next...)
			}
			got, err := apps.DecodeFlowSnapshot(words)
			if err != nil {
				return fmt.Errorf("probe %s: %w", rp.Name(), err)
			}
			entries += len(got)
		}
	}
	r.health = mean(health, nHealth)
	r.readRow0 = mean(row0, nRow0)
	r.readRow = mean(rows, nRows)
	if nRow0 > 0 {
		r.tableEntries = float64(entries) / float64(nRow0)
	}
	return nil
}

func mean(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// layerTotals sums a traced rep's spans per layer.
func (r *rep) layerTotals() (total [numLayers]time.Duration, allocs [numLayers]uint64) {
	for _, s := range r.spans {
		total[s.layer] += s.end - s.start
		allocs[s.layer] += s.allocs
	}
	return total, allocs
}

// layerDurations lists one layer's span durations.
func (r *rep) layerDurations(layer uint8) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.layer == layer {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// percentile is the nearest-rank p-th percentile of ds (0 < p <= 100).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// median of a float sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
