package main

// Layer measurements of the traced run that sit beside the probed
// campaign: the monitor's stream consumer, the stats layer, the fabric
// layer, and the trace and ledger the run writes out.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hpc"
	"repro/internal/march"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// minLookSamples is the monitor's per-side sample floor before a
// hypothesis takes its first look (MonitorConfig.MinSamples' default).
const minLookSamples = 8

// workerProto is the WorkerSpec layout version shardworker accepts.
const workerProto = "repro-fabric-1"

// streamCampaign collects the monitor's campaign through pipeline.Stream
// to exhaustion, recording every window in consumption order, and
// returns the distributions the exhaustion report is scored from.
func streamCampaign(ctx context.Context, p *pipeline.Pipeline, factory pipeline.TargetFactory, pools map[int][]*tensor.Tensor, out *probed) (*core.Distributions, error) {
	samples := map[march.Event]map[int][]float64{}
	for _, e := range events {
		samples[e] = map[int][]float64{}
	}
	stopped, err := p.Stream(ctx, func(_ int, seed int64) (core.Target, error) {
		return factory(seed)
	}, pools, func(win core.Window) error {
		out.windows++
		st := streamed{class: win.Class}
		for _, prof := range win.Profiles {
			vals := make([]float64, len(events))
			for i, e := range events {
				vals[i] = prof.Get(e)
				samples[e][win.Class] = append(samples[e][win.Class], vals[i])
			}
			st.profiles = append(st.profiles, vals)
		}
		out.stream = append(out.stream, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if stopped {
		return nil, fmt.Errorf("stream stopped before exhaustion")
	}
	cls := append([]int(nil), classes...)
	sort.Ints(cls)
	return &core.Distributions{Events: append([]march.Event(nil), events...), Classes: cls, Samples: samples}, nil
}

// statsLayer times the hypothesis tests alone: the monitor's sequential
// Welch looks over the recorded window sequence, and the batch pair
// tests, run one after another on one goroutine. The batch tests must
// equal the pipeline's.
func statsLayer(sp *spans, parent int, w workload, p *probed, m map[string]float64) error {
	var (
		n   int
		seq []core.PairTest
	)
	d, err := sp.timed(parent, "stats", "tests", func() error {
		if w.monitor {
			looks, err := replayLooks(p.stream)
			if err != nil {
				return err
			}
			n += looks
		}
		jobs, err := core.TestJobs(p.d)
		if err != nil {
			return err
		}
		seq = make([]core.PairTest, len(jobs))
		for _, j := range jobs {
			if seq[j.Index], err = p.ev.RunTestJob(p.d, j); err != nil {
				return err
			}
		}
		n += len(jobs)
		return nil
	})
	if err != nil {
		return fmt.Errorf("stats layer: %w", err)
	}
	m["stats.tests"] = float64(n)
	m["stats.test_s"] = d.Seconds()
	if got, want := fmt.Sprint(p.ev.FinalizeTests(seq)), fmt.Sprint(p.tests); got != want {
		return fmt.Errorf("sequential pair tests differ from the pipeline's")
	}
	return nil
}

// replayLooks runs the monitor's sequential Welch looks over a window
// sequence: after each window, every (event, class pair) the window's
// class belongs to is tested once both sides hold minLookSamples. It
// returns the number of looks.
func replayLooks(stream []streamed) (int, error) {
	type pair struct {
		a, b  int
		welch stats.SeqWelch
	}
	cls := append([]int(nil), classes...)
	sort.Ints(cls)
	pairs := make([][]*pair, len(events))
	for ei := range events {
		for i := range cls {
			for j := i + 1; j < len(cls); j++ {
				pairs[ei] = append(pairs[ei], &pair{a: cls[i], b: cls[j]})
			}
		}
	}
	looks := 0
	for _, win := range stream {
		for _, vals := range win.profiles {
			for ei, v := range vals {
				for _, pr := range pairs[ei] {
					switch win.class {
					case pr.a:
						pr.welch.AddA(v)
					case pr.b:
						pr.welch.AddB(v)
					}
				}
			}
		}
		for ei := range events {
			for _, pr := range pairs[ei] {
				if pr.a != win.class && pr.b != win.class {
					continue
				}
				if pr.welch.Na() < minLookSamples || pr.welch.Nb() < minLookSamples {
					continue
				}
				if _, err := pr.welch.Test(); err != nil {
					return looks, err
				}
				looks++
			}
		}
	}
	return looks, nil
}

// workerSpec is the spec a coordinator sends its shardworkers for w's
// campaign.
func workerSpec(s *repro.Scenario, w workload, root int64) ([]byte, error) {
	c := s.Config
	stage := repro.StageReport
	if w.monitor {
		stage = repro.StageMonitor
	}
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.String()
	}
	return json.Marshal(repro.WorkerSpec{
		Proto: workerProto,
		Stage: stage,
		Scenario: repro.ScenarioSpec{
			Dataset: c.Dataset, Seed: c.Seed, PerClassTrain: c.PerClassTrain,
			PerClassTest: c.PerClassTest, Epochs: c.Epochs, LR: c.LR, Defense: c.Defense.String(),
		},
		Level:        c.Defense.String(),
		Events:       names,
		Classes:      classes,
		RunsPerClass: runsPerClass,
		RootSeed:     root,
	})
}

// fabricLayer times what the fabric adds to the campaign: encoding and
// decoding each shard's payload, appending it to a fresh journal, and
// one worker's start-up from the campaign's spec. Every workload is
// measured, although only fabric-mnist's campaign pays these costs.
// Afterwards the payloads must merge into the probed campaign's report,
// and the started worker must reproduce the first shard's payload.
func fabricLayer(ctx context.Context, sp *spans, parent int, s *repro.Scenario, w workload, p *probed, e env, m map[string]float64) error {
	plans, err := p.p.WirePlans(p.pools)
	if err != nil {
		return err
	}
	spec, err := workerSpec(s, w, p.root)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.work, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal, err := fabric.OpenJournal(filepath.Join(dir, "journal"), fabric.CampaignDigest(spec))
	if err != nil {
		return err
	}
	defer journal.Close()

	fab := sp.begin(parent, "fabric", "fabric")
	payloads, err := shipPayloads(sp, fab.id, plans, p.d, journal, m)
	var runner fabric.Runner
	if err == nil {
		runtime.GC()
		var d time.Duration
		d, err = sp.timed(fab.id, "fabric", "worker.init", func() error {
			var err error
			runner, err = repro.NewWorkerRunner(ctx, spec)
			return err
		})
		m["fabric.worker_init_s"] = d.Seconds()
	}
	fab.end()
	if err != nil {
		return err
	}

	byClass, err := p.p.MergeEncoded(plans, payloads)
	if err != nil {
		return err
	}
	rep, err := p.p.ReportFromProfiles(ctx, p.name, byClass)
	if err != nil {
		return err
	}
	if got := digestReport(rep); got != p.digest {
		return fmt.Errorf("report merged from shard payloads has digest %s, the probed campaign %s", short(got), short(p.digest))
	}
	profs, err := runner.Execute(ctx, plans[0])
	if err != nil {
		return fmt.Errorf("worker execute: %w", err)
	}
	if b, err := pipeline.EncodeProfiles(profs); err != nil || !bytes.Equal(b, payloads[0]) {
		return fmt.Errorf("a worker built from the spec returns a different payload for shard 0 (%v)", err)
	}
	return nil
}

// shipPayloads encodes and decodes each shard's profiles, as the wire
// does, and appends every payload to the journal. It records the codec
// and journal times and the wire bytes, and returns the payloads in plan
// order.
func shipPayloads(sp *spans, parent int, plans []pipeline.Plan, d *core.Distributions, journal *fabric.Journal, m map[string]float64) ([][]byte, error) {
	payloads := make([][]byte, len(plans))
	var codec, appends time.Duration
	wire := 0
	for i, pl := range plans {
		profs := make([]hpc.Profile, pl.Count)
		for r := range profs {
			profs[r] = hpc.Profile{}
			for _, ev := range events {
				profs[r][ev] = d.Get(ev, pl.Class)[pl.Start+r]
			}
		}
		var back []hpc.Profile
		dur, err := sp.timed(parent, "fabric", "codec", func() error {
			var err error
			if payloads[i], err = pipeline.EncodeProfiles(profs); err != nil {
				return err
			}
			back, err = pipeline.DecodeProfiles(payloads[i])
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fabric codec: %w", err)
		}
		codec += dur
		wire += len(payloads[i])
		if again, err := pipeline.EncodeProfiles(back); err != nil || !bytes.Equal(again, payloads[i]) {
			return nil, fmt.Errorf("shard %d payload does not survive decode and re-encode (%v)", pl.Index, err)
		}
		dur, err = sp.timed(parent, "fabric", "journal.append", func() error {
			return journal.Append(pl.Index, payloads[i])
		})
		if err != nil {
			return nil, fmt.Errorf("journal append: %w", err)
		}
		appends += dur
	}
	m["fabric.wire_bytes"] = float64(wire)
	m["fabric.codec_s"] = codec.Seconds()
	m["fabric.journal_append_s"] = appends.Seconds()
	return payloads, nil
}

// writeAndCheckTrace writes the run's spans as a Chrome trace under the
// work directory and validates it with obsview -check.
func writeAndCheckTrace(list []span, w workload, seed int64, e env) error {
	dir := filepath.Join(e.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTrace(f, list); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if e.obsview == "" {
		return fmt.Errorf("no obsview binary to check %s with", path)
	}
	if out, err := exec.Command(e.obsview, "-check", path).CombinedOutput(); err != nil {
		return fmt.Errorf("obsview -check %s: %v: %s", path, err, out)
	}
	fmt.Printf("trace: %s, %d spans, accepted by obsview -check\n", path, len(list))
	return nil
}

// printLedger prints each layer's deterministic work next to its unit
// cost, so a regression reads as more work or as slower work, followed
// by self time per layer.
func printLedger(m map[string]float64) {
	fmt.Println("ledger (work x unit cost = time):")
	fmt.Printf("  nn        %10.0f samples      x %9.2f us/sample = %8.3f s train\n",
		m["nn.train_samples"], m["nn.train_us_per_sample"], m["nn.train_s"])
	fmt.Printf("  march     %10.0f L1 loads     x %9.3f ns/load   = %8.3f s classify busy\n",
		m["march.sim_l1_loads"], m["march.ns_per_l1_load"], m["march.classify_busy_s"])
	fmt.Printf("  march     %10.0f L1 misses, %.0f LLC misses, %.0f instructions, %.0f branches\n",
		m["march.sim_l1_misses"], m["march.sim_llc_misses"], m["march.sim_instructions"], m["march.sim_branches"])
	fmt.Printf("  march     %10.0f classifications, p50 %.1f us, p99 %.1f us\n",
		m["march.classifications"], m["march.classify_us_p50"], m["march.classify_us_p99"])
	fmt.Printf("  core      %10.0f shards       overhead %.3f s; pipeline collect %.3f s, busy %.3f\n",
		m["pipeline.shards"], m["core.shard_overhead_s"], m["pipeline.collect_s"], m["pipeline.busy_frac"])
	fmt.Printf("  stats     %10.0f tests        in %.6f s\n", m["stats.tests"], m["stats.test_s"])
	fmt.Printf("  fabric    %10.0f wire bytes   codec %.4f s, journal %.4f s, worker init %.3f s\n",
		m["fabric.wire_bytes"], m["fabric.codec_s"], m["fabric.journal_append_s"], m["fabric.worker_init_s"])
	fmt.Print("self time:")
	for _, layer := range layers {
		fmt.Printf(" %s %.3fs", layer, m["self."+layer+"_s"])
	}
	fmt.Println()
}
