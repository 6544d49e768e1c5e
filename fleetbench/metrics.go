package main

import (
	"time"
)

// metric is one reported figure: its name, unit and how it is read off
// the runs of one invocation.
type metric struct {
	name, unit string
	value      func(rs runs) float64
}

// runs is every rep of one invocation, split by tracing.
type runs struct {
	untraced, traced []*rep
}

// all lists every rep, untraced first.
func (rs runs) all() []*rep { return append(append([]*rep(nil), rs.untraced...), rs.traced...) }

// medianOf is the median of f over reps.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// stepMedians is each step's host time as its median over reps. Every
// rep of one seed drives the same steps (the digest gate proves so), so
// step i does the same work in each; the median drops the reps in which
// the host happened to interrupt it.
func stepMedians(reps []*rep) []time.Duration {
	out := make([]time.Duration, len(reps[0].stepTimes))
	xs := make([]time.Duration, len(reps))
	for i := range out {
		for j, r := range reps {
			xs[j] = r.stepTimes[i]
		}
		out[i] = percentile(xs, 50)
	}
	return out
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64      { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64      { return float64(d) / float64(time.Microsecond) }

// simulated reads a simulated outcome; every rep of one seed repeats it
// exactly (the digest gate proves so), so the first rep stands for all.
func simulated(f func(*rep) float64) func(runs) float64 {
	return func(rs runs) float64 { return f(rs.all()[0]) }
}

// endToEnd are the figures a user of the fleet sees, measured on
// untraced reps: host time for set-up and the stepped timeline, the
// heap the fleet holds, and the simulated service outcomes (which no
// host-only change may move). Simulated latencies are in sim_us,
// microseconds of the twin's clock: deterministic for a seed and
// independent of the host, unlike the host times in s and ms.
var endToEnd = []metric{
	{"setup_s", "s", func(rs runs) float64 {
		return medianOf(rs.untraced, func(r *rep) float64 { return seconds(r.setup) })
	}},
	{"loop_s", "s", func(rs runs) float64 {
		return medianOf(rs.untraced, func(r *rep) float64 { return seconds(r.loop) })
	}},
	{"step_p50_ms", "ms", func(rs runs) float64 { return ms(percentile(stepMedians(rs.untraced), 50)) }},
	{"step_p95_ms", "ms", func(rs runs) float64 { return ms(percentile(stepMedians(rs.untraced), 95)) }},
	{"live_heap_mb", "MB", func(rs runs) float64 {
		return medianOf(rs.untraced, func(r *rep) float64 { return float64(r.liveHeap) / (1 << 20) })
	}},
	{"availability", "ratio", simulated(func(r *rep) float64 { return float64(r.healthy) / float64(r.sent) })},
	{"served_frac", "ratio", simulated(func(r *rep) float64 { return float64(r.sent-r.dropped) / float64(r.sent) })},
	{"sim_p50_us", "sim_us", simulated(func(r *rep) float64 { return r.lat.Percentile(50).Microseconds() })},
	{"sim_p999_us", "sim_us", simulated(func(r *rep) float64 { return r.lat.Percentile(99.9).Microseconds() })},
}

// traced reads a per-layer figure as the median over traced reps.
func traced(f func(*rep) float64) func(runs) float64 {
	return func(rs runs) float64 { return medianOf(rs.traced, f) }
}

// layerSeconds is one layer's summed span time in a traced rep.
func layerSeconds(layer uint8) func(*rep) float64 {
	return func(r *rep) float64 {
		t, _ := r.layerTotals()
		return seconds(t[layer])
	}
}

// perPacket divides one layer's total (time or allocations) by the
// packets the loop routed.
func perPacket(r *rep, v float64) float64 { return v / float64(r.packets) }

// count reads a counter off a traced rep.
func count(f func(*rep) int64) func(runs) float64 {
	return traced(func(r *rep) float64 { return float64(f(r)) })
}

// perLayer are the traced run's figures: host time and allocations per
// layer from the driver's spans, Go runtime GC, set-up stages, the
// device command path (counters over the loop plus the post-loop table
// probe), and behaviour counts that no host-only change may move.
var perLayer = []metric{
	{"fleet.run.s", "s", traced(layerSeconds(layerRun))},
	{"fleet.run.ns_per_pkt", "ns", traced(func(r *rep) float64 {
		t, _ := r.layerTotals()
		return perPacket(r, float64(t[layerRun].Nanoseconds()))
	})},
	{"fleet.run.allocs_per_pkt", "allocs", traced(func(r *rep) float64 {
		_, a := r.layerTotals()
		return perPacket(r, float64(a[layerRun]))
	})},
	{"fleet.prepare.s", "s", traced(layerSeconds(layerPrepare))},
	{"fleet.prepare.allocs_per_pkt", "allocs", traced(func(r *rep) float64 {
		_, a := r.layerTotals()
		return perPacket(r, float64(a[layerPrepare]))
	})},
	{"go.gc_cycles", "count", count(func(r *rep) int64 { return int64(r.gcCycles) })},
	{"go.gc_pause_ms", "ms", traced(func(r *rep) float64 { return ms(r.gcPause) })},
	{"fleet.barrier.s", "s", traced(layerSeconds(layerBarrier))},
	{"fleet.barrier.p50_us", "us", traced(func(r *rep) float64 { return us(percentile(r.layerDurations(layerBarrier), 50)) })},
	{"fleet.barrier.p95_us", "us", traced(func(r *rep) float64 { return us(percentile(r.layerDurations(layerBarrier), 95)) })},
	{"fleet.barrier.share", "ratio", traced(func(r *rep) float64 { return layerSeconds(layerBarrier)(r) / seconds(r.loop) })},
	{"gossip.probes", "count", count(func(r *rep) int64 { return r.gossipProbes })},
	{"gossip.digests", "count", count(func(r *rep) int64 { return r.gossipDigests })},
	{"fleet.control.s", "s", traced(layerSeconds(layerControl))},
	{"fleet.control.calls", "count", count(func(r *rep) int64 { return int64(r.controlCalls) })},
	{"fleet.build.s", "s", traced(func(r *rep) float64 { return seconds(r.build) })},
	{"fleet.warm.s", "s", traced(func(r *rep) float64 { return seconds(r.warm) })},
	{"fleet.commission.us", "us", traced(func(r *rep) float64 { return us(r.commission) })},
	{"device.cmds", "count", count(func(r *rep) int64 { return r.cmd.Issued })},
	{"device.cmd_retries", "count", count(func(r *rep) int64 { return r.cmd.Retries })},
	{"device.cmd_drops", "count", count(func(r *rep) int64 { return r.cmd.Drops })},
	{"device.read_row0_us", "us", traced(func(r *rep) float64 { return us(r.readRow0) })},
	{"device.read_row_us", "us", traced(func(r *rep) float64 { return us(r.readRow) })},
	{"device.check_health_us", "us", traced(func(r *rep) float64 { return us(r.health) })},
	{"apps.flowtable.entries", "count", traced(func(r *rep) float64 { return r.tableEntries })},
	{"fleet.failovers", "count", count(func(r *rep) int64 { return int64(r.failovers) })},
	{"fleet.migrations_live", "count", count(func(r *rep) int64 { return int64(r.migLive) })},
	{"fleet.migrations_snapshot", "count", count(func(r *rep) int64 { return int64(r.migSnapshot) })},
	{"fleet.prload_peak", "count", count(func(r *rep) int64 { return int64(r.prloadPeak) })},
	{"fleet.prload_queued", "count", count(func(r *rep) int64 { return int64(r.prloadQueued) })},
	{"bench.span_coverage", "ratio", traced(func(r *rep) float64 {
		t, _ := r.layerTotals()
		var sum time.Duration
		for _, d := range t {
			sum += d
		}
		return seconds(sum) / seconds(r.loop)
	})},
	{"bench.trace_overhead", "ratio", func(rs runs) float64 {
		loop := func(r *rep) float64 { return seconds(r.loop) }
		return medianOf(rs.traced, loop)/medianOf(rs.untraced, loop) - 1
	}},
}
