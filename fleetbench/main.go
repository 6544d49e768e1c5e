// Command fleetbench is the fleet twin's benchmark: it drives one named
// workload through the public internal/fleet API one heartbeat step at
// a time and reports host time end to end (untraced) or per layer
// (traced), with correctness gates on the simulated outcome.
//
//	fleetbench --workload storm-300 --seed 11 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it carry the
// provenance header, the sim digest and a readable metric table. A
// failed gate prints correct=false and exits 1; bad arguments or a
// failing fleet call exit 2 without a result line.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Seeds recorded for claims: DefaultSeed is the one tuning runs use;
// HeldOutSeed is kept aside to re-check a claimed gain on inputs it
// was not developed against.
const (
	DefaultSeed = 11
	HeldOutSeed = 29
)

// procs is the GOMAXPROCS the command runs at. On a few shared vCPUs, a
// step that fans out to a second serve worker also waits until the host
// wakes that worker's thread, which adds host noise to churn-120's 1 ms
// steps. The worker count never changes simulated results.
const procs = 1

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name: storm-300 or churn-120")
	seed := flag.Int64("seed", DefaultSeed, "workload seed; traffic, storm and router seeds derive from it")
	secs := flag.Int("seconds", 30, "measurement time; whole reps run until it is spent")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced reps; 1: per-layer metrics from traced reps")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(names(), "|"))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	res, err := measure(out, w, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	var gate *gateError
	if errors.As(err, &gate) {
		fmt.Fprintf(out, "fleetbench: %v\n", err)
		res.Correct = false
		res.Failed++
	} else if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		out.Flush()
		os.Exit(1)
	}
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// measure runs reps of w until budget is spent — untraced only, or
// untraced and traced alternately — gates their sim digests against
// each other and reads the requested metric set off them.
func measure(out *bufio.Writer, w workload, seed int64, budget time.Duration, traceOn bool) (result, error) {
	res := result{Correct: true, Metrics: map[string]valueOfUnit{}}
	fmt.Fprintf(out, "fleetbench provenance %s\n", provenance(w, seed, traceOn))
	var rs runs
	start := time.Now()
	for i := 0; time.Since(start) < budget || len(rs.untraced) == 0 || (traceOn && len(rs.traced) == 0); i++ {
		tracedRep := traceOn && i%2 == 1
		r, err := runOnce(w, seed, tracedRep)
		res.Attempted += w.steps
		if err != nil {
			return res, err
		}
		fmt.Fprintf(out, "fleetbench rep=%d traced=%v setup_s=%.6f loop_s=%.6f\n", i, tracedRep, r.setup.Seconds(), r.loop.Seconds())
		if tracedRep {
			rs.traced = append(rs.traced, r)
		} else {
			rs.untraced = append(rs.untraced, r)
		}
		if first := rs.all()[0]; r.digest != first.digest {
			return res, gatef("sim digest %016x of rep %d (traced=%v) differs from %016x", r.digest, i, tracedRep, first.digest)
		}
	}
	fmt.Fprintf(out, "fleetbench workload=%s seed=%d untraced_reps=%d traced_reps=%d steps=%d sim_digest=%016x\n",
		w.name, seed, len(rs.untraced), len(rs.traced), w.steps, rs.all()[0].digest)
	set := endToEnd
	if traceOn {
		set = perLayer
	}
	for _, m := range set {
		v := m.value(rs)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, gatef("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = valueOfUnit{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// provenance is the ledger header stamped on every output: which code,
// toolchain and machine produced the figures.
func provenance(w workload, seed int64, traceOn bool) string {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
	}
	p := map[string]any{
		"commit":     commit + modified,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   w.name,
		"seed":       seed,
		"trace":      traceOn,
	}
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err)
	}
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
