// Command perfbench is the repository's benchmark. It drives real leakage
// campaigns through the public repro API and prints, as the last line of
// its standard output, one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end timings of an untraced
// run; with -trace 1 a separate traced run times every layer from this
// package and reports the per-layer ledger. Run it from the repository
// root through run.sh, which builds it and the binaries it drives:
//
//	bash perfbench/run.sh --workload evaluate-mnist --seed 0 --seconds 20 --trace 0
//
// See README.md for the workloads and the metric → layer → workload map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro"
)

// setupRuns is how many times a run builds the scenario; setup_s is the
// median.
const setupRuns = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations (campaigns) and their failures.
type tally struct{ attempted, failed int }

// op records one operation; a non-nil err is a failed operation.
func (t *tally) op(name string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 0, "workload seed; derives the scenario and campaign seeds")
		seconds = flag.Int("seconds", 20, "how long the timed campaign loop runs")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end timings")
		e       env
	)
	flag.StringVar(&e.shardworker, "shardworker", "", "shardworker binary for fabric workloads")
	flag.StringVar(&e.obsview, "obsview", "", "obsview binary that validates the written trace")
	flag.StringVar(&e.work, "work", ".bench_build/perfbench", "scratch directory for journals and traces")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, e env) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	x, err := loadExpectations(expectedJSON)
	if err != nil {
		return err
	}
	chk, err := newChecker(w, seed, x)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	fmt.Println(hostLine())
	fmt.Printf("workload %s seed %d trace %v\n", w.name, seed, traced)
	ctx := context.Background()
	var res result
	budget := time.Duration(seconds) * time.Second
	if traced {
		res, err = tracedRun(ctx, w, seed, budget, e, chk)
	} else {
		res, err = measure(ctx, w, seed, budget, e, chk)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure is the untraced run: it builds the scenario a few times, then
// repeats the campaign for the given duration, and reports medians.
// Every build and campaign is preceded by a forced GC and a reset of the
// process's peak-RSS count, so each is timed and sized on its own.
func measure(ctx context.Context, w workload, seed int64, budget time.Duration, e env, chk *checker) (result, error) {
	cfg := scenarioConfig(w)
	var (
		s                  *repro.Scenario
		setups, setupPeaks []float64
	)
	for len(setups) < setupRuns {
		s = nil
		if err := prepareOp(); err != nil {
			return result{}, err
		}
		start := time.Now()
		var err error
		if s, err = repro.NewScenario(cfg); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		peak, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		setupPeaks = append(setupPeaks, peak)
	}

	// Campaigns cycle through the run's root seeds until the budget is
	// spent, and at least once through every seed.
	var (
		t             tally
		times, rates  []float64
		campaignPeaks []float64
		roots         = rootSeeds(seed)
		deadline      = time.Now().Add(budget)
	)
	for n := 0; n < rootsPerRun || time.Now().Before(deadline); n++ {
		slot := n % rootsPerRun
		if err := prepareOp(); err != nil {
			return result{}, err
		}
		start := time.Now()
		o, err := runCampaign(ctx, s, w, roots[slot], e, nil)
		elapsed := time.Since(start).Seconds()
		if err == nil {
			err = chk.outcome(slot, o)
		}
		t.op("campaign", err)
		if err != nil {
			continue
		}
		peak, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		times = append(times, elapsed)
		rates = append(rates, float64(o.traces)/elapsed)
		campaignPeaks = append(campaignPeaks, peak)
	}
	if w.processes > 0 {
		// The fabric must reproduce the in-process campaign byte for byte.
		inproc := w
		inproc.processes = 0
		for slot, root := range roots {
			o, err := runCampaign(ctx, s, inproc, root, e, nil)
			if err == nil && o.digest != chk.digests[slot] {
				err = fmt.Errorf("in-process digest %s differs from the fabric's %s", short(o.digest), short(chk.digests[slot]))
			}
			t.op("in-process check campaign", err)
		}
	}

	fmt.Printf("setup %s\ncampaign %s\n", fmtSeconds(setups), fmtSeconds(times))
	for slot, root := range roots {
		fmt.Printf("root seed %d digest %s\n", root, chk.digests[slot])
	}
	return e2eResult(t, setups, times, rates, math.Max(median(setupPeaks), median(campaignPeaks))), nil
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"verdict_s", "s"},
	{"classifications_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// e2eResult reports the end-to-end metrics from the run's samples: the
// median set-up time, the median campaign time, their sum (what a CLI
// user waits for a verdict), the median campaign throughput and the
// peak resident set a verdict needs.
func e2eResult(t tally, setups, times, rates []float64, rss float64) result {
	setup, campaign := median(setups), median(times)
	v := map[string]float64{
		"setup_s":               setup,
		"campaign_s":            campaign,
		"verdict_s":             setup + campaign,
		"classifications_per_s": median(rates),
		"peak_rss_mb":           rss,
	}
	res := result{Correct: t.failed == 0 && len(times) > 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	return res
}

// median of a sample (0 for an empty one).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]s"
}

// hostLine describes the machine a run measured on.
func hostLine() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s %s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// cpuModel reads the CPU model name, or "unknown" where /proc/cpuinfo is
// unavailable.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
