package main

// The traced run: the campaign taken apart layer by layer. The scenario
// is built from the dataset, nn, march and defense calls NewScenario
// makes; the campaign runs on the pipeline with a probed target
// factory; the fabric's codec, journal and worker start-up are timed on
// the campaign's own shard payloads. The report it assembles must equal,
// digest for digest, the one the public API produces untraced.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/defense"
	"repro/internal/instrument"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// layers are the trace categories self time is reported for. "bench" is
// the benchmark's own time outside every layer call.
var layers = []string{"bench", "dataset", "nn", "deploy", "march", "core", "pipeline", "stats", "fabric", "repro"}

// perLayer lists every per-layer metric with its unit, in output order.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"dataset.gen_s", "s"},
		{"nn.train_s", "s"},
		{"nn.train_samples", "count"},
		{"nn.train_us_per_sample", "us"},
		{"march.classifications", "count"},
		{"march.classify_busy_s", "s"},
		{"march.classify_us_p50", "us"},
		{"march.classify_us_p99", "us"},
		{"march.sim_instructions", "count"},
		{"march.sim_l1_loads", "count"},
		{"march.sim_l1_misses", "count"},
		{"march.sim_llc_misses", "count"},
		{"march.sim_branches", "count"},
		{"march.ns_per_l1_load", "ns"},
		{"core.shard_overhead_s", "s"},
		{"pipeline.collect_s", "s"},
		{"pipeline.test_s", "s"},
		{"pipeline.shards", "count"},
		{"pipeline.busy_frac", "fraction"},
		{"pipeline.windows", "count"},
		{"stats.tests", "count"},
		{"stats.test_s", "s"},
		{"monitor.traces_seen", "count"},
		{"fabric.worker_init_s", "s"},
		{"fabric.wire_bytes", "bytes"},
		{"fabric.codec_s", "s"},
		{"fabric.journal_append_s", "s"},
		{"obs.armed_overhead_frac", "fraction"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"trace.overhead_frac", "fraction"},
	}
	for _, layer := range layers {
		l = append(l, struct{ name, unit string }{"self." + layer + "_s", "s"})
	}
	return l
}()

// tracedRun runs the per-layer ledger of one workload. budget bounds the
// time it spends on the untraced and armed public-API campaigns whose
// times it compares; it makes at least one of each.
func tracedRun(ctx context.Context, w workload, seed int64, budget time.Duration, e env, chk *checker) (result, error) {
	sp := newSpans()
	root := sp.begin(0, "bench", "run")
	m := map[string]float64{}
	var t tally

	setup := sp.begin(root.id, "bench", "setup")
	s, err := buildScenario(sp, setup.id, scenarioConfig(w), m)
	setup.end()
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}

	// Campaigns through the public API, untraced or with armed
	// telemetry. The first untraced one picks the root seed the ledger
	// uses: the first of the run's seeds on which the campaign runs to
	// exhaustion (the monitor may stop early). It also measures the Go
	// runtime's allocation.
	roots := rootSeeds(seed)
	var off, armed []float64
	var pubs []outcome
	public := func(slot int, arm bool) (outcome, time.Duration, error) {
		var rec *obs.Recorder
		name := "campaign.off"
		if arm {
			rec = obs.New(obs.Config{Label: "perfbench"})
			name = "campaign.armed"
		}
		runtime.GC()
		var o outcome
		d, err := sp.timed(root.id, "repro", name, func() error {
			var err error
			o, err = runCampaign(ctx, s, w, roots[slot], e, rec)
			return err
		})
		if err == nil {
			err = chk.outcome(slot, o)
		}
		t.op(name, err)
		if arm {
			armed = append(armed, d.Seconds())
		} else {
			off = append(off, d.Seconds())
		}
		return o, d, err
	}
	slot := -1
	var spent time.Duration
	for i := range roots {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o, d, err := public(i, false)
		runtime.ReadMemStats(&after)
		if err != nil {
			return ledgerResult(t, m), nil
		}
		if o.traces == runsPerClass*len(classes) {
			slot = i
			spent = d
			pubs = append(pubs, o)
			m["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
			break
		}
		off = off[:0]
	}
	if slot < 0 {
		t.op("root seed choice", fmt.Errorf("no root seed of %v ran to exhaustion", roots))
		return ledgerResult(t, m), nil
	}
	fmt.Printf("root seed %d\n", roots[slot])

	// Two probed campaigns: the first warms the process up and must do
	// exactly the simulated work of the second, which is the one traced.
	// The warm-up's layer spans are dropped, so self time per layer
	// describes one campaign.
	var warm *probed
	_, err = sp.timed(root.id, "bench", "campaign.warmup", func() error {
		var err error
		warm, err = probedCampaign(ctx, newSpans(), 0, s, w, roots[slot])
		return err
	})
	if err == nil {
		err = chk.work(warm.sum.work)
	}
	t.op("warm-up probed campaign", err)
	if err != nil {
		return ledgerResult(t, m), nil
	}
	p, err := probedCampaign(ctx, sp, root.id, s, w, roots[slot])
	if err == nil && p.sum.work != warm.sum.work {
		err = fmt.Errorf("simulated work %+v differs from the warm-up campaign's %+v", p.sum.work, warm.sum.work)
	}
	if err != nil {
		t.op("probed campaign", err)
		return ledgerResult(t, m), nil
	}
	if raw, err := json.Marshal(p.sum.work); err == nil {
		fmt.Printf("simulated work %s digest %s\n", raw, p.digest)
	}
	m["march.classifications"] = float64(p.sum.classifications)
	m["march.classify_busy_s"] = p.sum.classifyBusy.Seconds()
	m["march.classify_us_p50"] = float64(p.sum.p50.Nanoseconds()) / 1e3
	m["march.classify_us_p99"] = float64(p.sum.p99.Nanoseconds()) / 1e3
	m["march.sim_instructions"] = float64(p.sum.work.Instructions)
	m["march.sim_l1_loads"] = float64(p.sum.work.L1Loads)
	m["march.sim_l1_misses"] = float64(p.sum.work.L1Misses)
	m["march.sim_llc_misses"] = float64(p.sum.work.LLCMisses)
	m["march.sim_branches"] = float64(p.sum.work.Branches)
	if p.sum.work.L1Loads > 0 {
		m["march.ns_per_l1_load"] = float64(p.sum.classifyBusy.Nanoseconds()) / float64(p.sum.work.L1Loads)
	}
	m["core.shard_overhead_s"] = (p.sum.shardBusy - p.sum.classifyBusy).Seconds()
	m["pipeline.collect_s"] = p.collect.Seconds()
	m["pipeline.test_s"] = p.test.Seconds()
	m["pipeline.shards"] = float64(p.sum.shards)
	m["pipeline.busy_frac"] = p.sum.shardBusy.Seconds() / (p.collect.Seconds() * workers)
	m["pipeline.windows"] = float64(p.windows)
	if w.monitor {
		m["monitor.traces_seen"] = float64(p.traces)
	}
	checks := []error{
		statsLayer(sp, root.id, w, p, m),
		fabricLayer(ctx, sp, root.id, s, w, p, e, m),
	}

	// The rest of the untraced and armed campaigns, in untraced, armed,
	// armed, untraced order, so a steady drift of the host's speed
	// cancels out of the comparison. Every public campaign must repeat
	// the probed campaign's bytes.
	for k := 1; k%2 != 0 || spent < budget; k++ {
		o, d, err := public(slot, k%4 == 1 || k%4 == 2)
		spent += d
		if err == nil {
			pubs = append(pubs, o)
		}
	}
	// The probed campaign runs in-process; on a fabric workload its
	// untraced counterpart is the same campaign in-process, which must
	// also repeat the fabric's bytes.
	untraced := median(off)
	if w.processes > 0 {
		inproc := w
		inproc.processes = 0
		runtime.GC()
		var o outcome
		d, err := sp.timed(root.id, "repro", "campaign.inprocess", func() error {
			var err error
			o, err = runCampaign(ctx, s, inproc, roots[slot], e, nil)
			return err
		})
		if err == nil {
			err = chk.outcome(slot, o)
		}
		t.op("in-process check campaign", err)
		if err == nil {
			pubs = append(pubs, o)
			untraced = d.Seconds()
		}
	}
	for _, o := range pubs {
		if o.traces != p.traces {
			checks = append(checks, fmt.Errorf("%d classifications through the public API, the probed campaign made %d", o.traces, p.traces))
		}
		if p.digest != o.digest && p.digest != o.batchDigest {
			checks = append(checks, fmt.Errorf("public API digest %s differs from the probed campaign's %s", short(o.digest), short(p.digest)))
		}
	}
	m["obs.armed_overhead_frac"] = median(armed)/median(off) - 1
	m["trace.overhead_frac"] = p.campaign.Seconds()/untraced - 1
	root.end()

	list := sp.snapshot()
	self := selfTimes(list)
	for _, layer := range layers {
		m["self."+layer+"_s"] = self[layer].Seconds()
	}
	checks = append(checks, writeAndCheckTrace(list, w, seed, e))
	var failed error
	for _, c := range checks {
		if c != nil {
			failed = c
			fmt.Fprintf(os.Stderr, "perfbench: traced check: %v\n", c)
		}
	}
	t.op("probed campaign", failed)
	printLedger(m)
	return ledgerResult(t, m), nil
}

// ledgerResult reports every per-layer metric; one the run could not
// measure reads 0 and the run is marked failed.
func ledgerResult(t tally, m map[string]float64) result {
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	return res
}

// buildScenario constructs the MNIST scenario NewScenario would, one
// layer call at a time: dataset generation, network build and training
// (at NewScenario's MNIST learning rate), test accuracy, and the
// deployed target on a simulated core. Every workload is an MNIST audit.
func buildScenario(sp *spans, parent int, cfg repro.ScenarioConfig, m map[string]float64) (*repro.Scenario, error) {
	arch := nn.MNISTArch()
	var train, test *dataset.Set
	d, err := sp.timed(parent, "dataset", "generate", func() error {
		var err error
		train, test, err = dataset.MNISTLike(dataset.Config{PerClassTrain: cfg.PerClassTrain, PerClassTest: cfg.PerClassTest, Seed: cfg.Seed})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["dataset.gen_s"] = d.Seconds()

	var net *nn.Network
	d, err = sp.timed(parent, "nn", "train", func() error {
		var err error
		if net, err = nn.Build(arch, rand.New(rand.NewSource(cfg.Seed+1))); err != nil {
			return err
		}
		return nn.Train(net, train.Inputs(), train.Labels(), nn.TrainConfig{
			Epochs: cfg.Epochs, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: cfg.Seed + 2,
		})
	})
	if err != nil {
		return nil, err
	}
	samples := cfg.Epochs * len(train.Samples)
	m["nn.train_s"] = d.Seconds()
	m["nn.train_samples"] = float64(samples)
	m["nn.train_us_per_sample"] = float64(d.Nanoseconds()) / 1e3 / float64(samples)

	var acc float64
	if _, err := sp.timed(parent, "nn", "accuracy", func() error {
		var err error
		acc, err = nn.Accuracy(net, test.Inputs(), test.Labels())
		return err
	}); err != nil {
		return nil, err
	}

	var (
		engine *march.Engine
		target core.Target
	)
	if _, err := sp.timed(parent, "deploy", "target", func() error {
		var err error
		engine, err = march.NewEngine(march.Config{Hierarchy: instrument.SimHierarchy(), Noise: march.DefaultNoise(cfg.Seed + 3)})
		if err != nil {
			return err
		}
		target, err = defense.New(net, engine, defense.Config{Level: cfg.Defense, Seed: cfg.Seed + 4, Runtime: instrument.DefaultRuntime()})
		return err
	}); err != nil {
		return nil, err
	}
	return &repro.Scenario{
		Config: cfg, Arch: arch, Train: train, Test: test, Net: net,
		Engine: engine, Target: target, TestAccuracy: acc,
	}, nil
}

// probed is one campaign run layer by layer.
type probed struct {
	digest   string
	traces   int
	windows  int
	campaign time.Duration
	collect  time.Duration
	test     time.Duration
	sum      probeSummary

	name  string
	root  int64
	ev    *core.Evaluator
	p     *pipeline.Pipeline
	pools map[int][]*tensor.Tensor
	d     *core.Distributions
	tests []core.PairTest
	// stream is the monitor's window sequence in consumption order.
	stream []streamed
}

// streamed is one consumed window: its class and, per profile, one
// value per event.
type streamed struct {
	class    int
	profiles [][]float64
}

// probedCampaign runs w's campaign on the pipeline with a probed
// target factory and assembles its report.
func probedCampaign(ctx context.Context, sp *spans, parent int, s *repro.Scenario, w workload, root int64) (*probed, error) {
	runtime.GC()
	ev, err := core.NewEvaluator(core.Config{Events: events, RunsPerClass: runsPerClass})
	if err != nil {
		return nil, err
	}
	p, err := pipeline.New(ev, pipeline.Config{Workers: workers, RootSeed: root})
	if err != nil {
		return nil, err
	}
	pools, err := s.ClassPools(classes...)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s/%s", s.Config.Dataset, s.Config.Defense)
	out := &probed{name: name, root: root, ev: ev, p: p, pools: pools}
	pr := &probe{}
	factory := pr.factory(s.TargetFactory())
	camp := sp.begin(parent, "bench", "campaign")
	coll := sp.begin(camp.id, "pipeline", "collect")
	if w.monitor {
		out.d, err = streamCampaign(ctx, p, factory, pools, out)
	} else {
		out.d, err = p.Collect(ctx, factory, pools)
	}
	out.collect = coll.end()
	pr.record(sp, coll.id)
	if err != nil {
		return nil, err
	}
	out.test, err = sp.timed(camp.id, "pipeline", "test", func() error {
		var err error
		out.tests, err = p.Test(ctx, out.d)
		return err
	})
	if err != nil {
		return nil, err
	}
	var rep *core.Report
	sp.timed(camp.id, "core", "report", func() error {
		rep = ev.BuildReport(name, out.d, out.tests)
		return nil
	})
	out.campaign = camp.end()
	out.digest = digestReport(rep)
	out.sum = pr.summary()
	for _, c := range out.d.Classes {
		out.traces += len(out.d.Get(events[0], c))
	}
	return out, nil
}
