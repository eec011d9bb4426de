package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/march"
	"repro/internal/nn"
	"repro/internal/stats"
)

// smallScenario builds a fast MNIST scenario for facade tests.
func smallScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := NewScenario(ScenarioConfig{
		Dataset:       DatasetMNIST,
		PerClassTrain: 20,
		PerClassTest:  10,
		Epochs:        1,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewScenarioUnknownDataset(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{Dataset: "svhn"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScenarioConfigDefaults(t *testing.T) {
	c := ScenarioConfig{Dataset: DatasetMNIST}.withDefaults()
	if c.Seed != 1 || c.PerClassTrain != 120 || c.PerClassTest != 60 || c.Epochs != 2 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestSmallScenarioEndToEnd(t *testing.T) {
	s := smallScenario(t)
	if s.TestAccuracy < 0.5 {
		t.Fatalf("test accuracy %.3f too low even for the small config", s.TestAccuracy)
	}
	rep, err := s.Evaluate(EvalConfig{Classes: []int{1, 2}, RunsPerClass: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tests) != 2 { // 1 pair × 2 events
		t.Fatalf("tests = %d, want 2", len(rep.Tests))
	}
	var b strings.Builder
	if err := TableTTests(&b, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "t1,2") {
		t.Fatalf("table missing pair:\n%s", b.String())
	}
	b.Reset()
	if err := RenderFigure1(&b, "fig1", rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "category 1") {
		t.Fatalf("figure 1 malformed:\n%s", b.String())
	}
	b.Reset()
	if err := FigureDistributions(&b, "fig3", rep, EvCacheMisses); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "category 2") {
		t.Fatalf("figure 3 malformed:\n%s", b.String())
	}
	b.Reset()
	if err := WriteCSV(&b, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "event,class,run,value") {
		t.Fatal("CSV header missing")
	}
	b.Reset()
	RenderAlarms(&b, rep)
	RenderSummary(&b, rep)
	if b.Len() == 0 {
		t.Fatal("alarm/summary rendering empty")
	}
}

func TestClassPools(t *testing.T) {
	s := smallScenario(t)
	pools, err := s.ClassPools(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != 2 || len(pools[1]) == 0 || len(pools[3]) == 0 {
		t.Fatalf("pools = %v", len(pools))
	}
	if _, err := s.ClassPools(99); err == nil {
		t.Fatal("missing class accepted")
	}
	// Default classes are the paper's four.
	def, err := s.ClassPools()
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 4 {
		t.Fatalf("default pools = %d classes, want 4", len(def))
	}
}

func TestPaperClasses(t *testing.T) {
	got := PaperClasses()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PaperClasses = %v", got)
		}
	}
}

func TestFigure2bSmall(t *testing.T) {
	s := smallScenario(t)
	prof, out, err := Figure2b(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != len(march.AllEvents()) {
		t.Fatalf("profile has %d events, want %d", len(prof), len(march.AllEvents()))
	}
	for _, e := range march.AllEvents() {
		if !strings.Contains(out, e.String()) {
			t.Fatalf("output missing %s:\n%s", e, out)
		}
	}
	// perf-style Indian grouping must appear for the big counters.
	if !strings.Contains(out, ",") {
		t.Fatalf("no digit grouping in:\n%s", out)
	}
	if prof.Get(EvInstructions) <= prof.Get(EvBranches) {
		t.Fatal("instructions not above branches")
	}
}

func TestFigure1ReturnsMeans(t *testing.T) {
	s := smallScenario(t)
	// Workers: 2 routes the figure's campaign through the sharded pipeline.
	means, rep, err := Figure1(s, EvalConfig{Classes: []int{1, 2}, RunsPerClass: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 2 {
		t.Fatalf("means = %v", means)
	}
	for i, cls := range rep.Dists.Classes {
		if want := stats.Mean(rep.Dists.Get(EvCacheMisses, cls)); means[i] != want {
			t.Fatalf("mean[%d] = %v, want %v", i, means[i], want)
		}
	}
}

// fakeShapeReport builds a report with chosen p-values for ShapeCheck.
func fakeShapeReport(cmPs, brPs []float64) *Report {
	rep := &Report{Config: core.Config{Alpha: 0.05}}
	rep.Dists = &core.Distributions{Events: []Event{EvCacheMisses, EvBranches}}
	add := func(e Event, ps []float64) {
		for i, p := range ps {
			var t core.PairTest
			t.Event = e
			t.ClassA, t.ClassB = 1, i+2
			t.Result = stats.TTestResult{T: 5, DF: 10, P: p}
			rep.Tests = append(rep.Tests, t)
		}
	}
	add(EvCacheMisses, cmPs)
	add(EvBranches, brPs)
	return rep
}

func TestShapeCheck(t *testing.T) {
	// Paper shape: all cache pairs significant, few branch pairs.
	ok, _ := ShapeCheck(fakeShapeReport(
		[]float64{0.001, 0.0001, 0.01},
		[]float64{0.3, 0.04, 0.6},
	))
	if !ok {
		t.Fatal("paper-shaped report rejected")
	}
	// Cache pair insignificant → fail.
	ok, findings := ShapeCheck(fakeShapeReport(
		[]float64{0.001, 0.2, 0.01},
		[]float64{0.3, 0.4, 0.6},
	))
	if ok {
		t.Fatalf("missing cache separation accepted: %v", findings)
	}
	// Branches too discriminative → fail.
	ok, _ = ShapeCheck(fakeShapeReport(
		[]float64{0.001, 0.0001, 0.01},
		[]float64{0.001, 0.04, 0.01},
	))
	if ok {
		t.Fatal("over-discriminative branches accepted")
	}
}

func TestDefaultScenarioCached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full default scenario")
	}
	a, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("DefaultScenario rebuilt instead of caching")
	}
}

// TestDefaultMNISTModelDigest pins the default MNIST victim (seed 1) to
// the bytes the one-sample-at-a-time training loop produced. Every golden
// runs on these weights; training on parallel workers must not move a bit.
func TestDefaultMNISTModelDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full default scenario")
	}
	s, err := DefaultScenario(DatasetMNIST)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := nn.SaveModel(&buf, s.Arch, s.Net); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "5d60780d525fe2e7db10babffdb3dd4e96901f249855791e432922d9be36003d"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("default MNIST model digest %s, want %s", got, want)
	}
	if s.TestAccuracy != 0.9716666666666667 {
		t.Fatalf("default MNIST test accuracy %v, want 0.9716666666666667", s.TestAccuracy)
	}
}

func TestEvaluateDefenseQuietsAlarms(t *testing.T) {
	// End-to-end: constant-time deployment of the small scenario must not
	// produce cache-miss alarms even where the baseline does.
	leaky := smallScenario(t)
	leakyRep, err := leaky.Evaluate(EvalConfig{Classes: []int{1, 2, 3, 4}, RunsPerClass: 40})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := NewScenario(ScenarioConfig{
		Dataset:       DatasetMNIST,
		PerClassTrain: 20,
		PerClassTest:  10,
		Epochs:        1,
		Seed:          5,
		Defense:       DefenseConstantTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	hardRep, err := hard.Evaluate(EvalConfig{Classes: []int{1, 2, 3, 4}, RunsPerClass: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(hardRep.AlarmsFor(EvCacheMisses)) >= len(leakyRep.AlarmsFor(EvCacheMisses)) &&
		len(leakyRep.AlarmsFor(EvCacheMisses)) > 0 {
		t.Fatalf("defense did not reduce cache alarms: baseline %d, constant-time %d",
			len(leakyRep.AlarmsFor(EvCacheMisses)), len(hardRep.AlarmsFor(EvCacheMisses)))
	}
}
