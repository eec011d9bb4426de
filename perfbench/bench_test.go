package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the benchmark must
// agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// units maps each metric of a result to its unit.
func units(r result) map[string]string {
	out := map[string]string{}
	for name, m := range r.Metrics {
		out[name] = m.Unit
	}
	return out
}

func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	want := map[string]string{}
	for _, m := range b.EndToEnd {
		want[m.Name] = m.Unit
	}
	if got := units(e2eResult(tally{}, []float64{1}, []float64{1}, []float64{1}, 1)); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced run emits %v, BENCHMARK.json lists %v", got, want)
	}
	want = map[string]string{}
	for _, m := range b.PerLayer {
		want[m.Name] = m.Unit
	}
	if got := units(ledgerResult(tally{}, map[string]float64{})); !reflect.DeepEqual(got, want) {
		t.Errorf("traced run emits %v, BENCHMARK.json lists %v", got, want)
	}
	var names, listed []string
	for _, w := range workloads {
		names = append(names, w.name+": "+w.why)
	}
	for _, w := range b.Workloads {
		listed = append(listed, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads %q, BENCHMARK.json lists %q", names, listed)
	}
}

func TestExpectationsCoverEveryWorkload(t *testing.T) {
	x, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, err := newChecker(w, x.Seed, x); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	// The fabric must reproduce the in-process campaign byte for byte.
	if a, b := x.Workloads["fabric-mnist"], x.Workloads["evaluate-mnist"]; !reflect.DeepEqual(a, b) {
		t.Errorf("fabric-mnist expects %+v, evaluate-mnist %+v", a, b)
	}
}

func TestCorruptedDigestFailsTheCheck(t *testing.T) {
	x, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("evaluate-mnist")
	if err != nil {
		t.Fatal(err)
	}
	good := outcome{digest: x.Workloads[w.name].Digests[0], traces: runsPerClass * len(classes), leaky: true}
	chk, err := newChecker(w, x.Seed, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.outcome(0, good); err != nil {
		t.Fatalf("recorded digest rejected: %v", err)
	}

	exp := x.Workloads[w.name]
	exp.Digests = append([]string(nil), exp.Digests...)
	exp.Digests[0] = "0" + exp.Digests[0][1:]
	x.Workloads[w.name] = exp
	chk, err = newChecker(w, x.Seed, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.outcome(0, good); err == nil {
		t.Fatal("a corrupted expected digest passed the check")
	}
	if err := chk.work(work{L1Loads: 1}); err == nil {
		t.Fatal("simulated work different from the record passed the check")
	}
}

func TestCheckerFailsWrongOutputs(t *testing.T) {
	w, err := findWorkload("fabric-mnist")
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(w, 99, expectations{Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	full := runsPerClass * len(classes)
	if err := chk.outcome(1, outcome{digest: "a", traces: full, leaky: true}); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]outcome{
		"a changed digest":       {digest: "b", traces: full, leaky: true},
		"a silent baseline":      {digest: "a", traces: full},
		"a short evaluate audit": {digest: "a", traces: full - 1, leaky: true},
	} {
		if chk.outcome(1, o) == nil {
			t.Errorf("%s passed the check", name)
		}
	}
}

func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	if reflect.DeepEqual(rootSeeds(0), rootSeeds(1)) {
		t.Fatal("seeds 0 and 1 derive the same campaign root seeds")
	}
	if !reflect.DeepEqual(rootSeeds(7), rootSeeds(7)) {
		t.Fatal("root seeds are not a function of the seed")
	}
	// Different root seeds produce different reports: the recorded
	// digests of the default seed's three roots all differ.
	x, err := loadExpectations(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	d := x.Workloads["evaluate-mnist"].Digests
	if d[0] == d[1] || d[1] == d[2] || d[0] == d[2] {
		t.Fatalf("root seeds share a digest: %v", d)
	}
	a := e2eResult(tally{attempted: 3}, []float64{1, 2, 3}, []float64{0.5}, []float64{2400}, 20)
	b := e2eResult(tally{attempted: 9}, []float64{7}, []float64{0.4, 0.6, 0.7}, []float64{1800, 1900}, 30)
	if !reflect.DeepEqual(units(a), units(b)) {
		t.Fatalf("metric sets differ: %v vs %v", units(a), units(b))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	// A 100 ms collect span with two 60 ms shards on two lanes that
	// overlap by 40 ms, each holding a 50 ms classification.
	list := []span{
		{ID: 1, Layer: "pipeline", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Layer: "core", Lane: 1, Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Layer: "core", Lane: 2, Start: 20 * ms, End: 80 * ms},
		{ID: 4, Parent: 2, Layer: "march", Lane: 1, Start: 5 * ms, End: 55 * ms},
		{ID: 5, Parent: 3, Layer: "march", Lane: 2, Start: 25 * ms, End: 75 * ms},
	}
	got := selfTimes(list)
	want := map[string]time.Duration{"pipeline": 20 * ms, "core": 20 * ms, "march": 100 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	if q := quantile(d, 0.5); q != 50 {
		t.Errorf("p50 = %d, want 50", q)
	}
	if q := quantile(d, 0.99); q != 99 {
		t.Errorf("p99 = %d, want 99", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty p50 = %d", q)
	}
}

func TestWriteTrace(t *testing.T) {
	list := []span{{ID: 1, Layer: "bench", Name: "run", End: 2 * time.Millisecond}, {ID: 2, Parent: 1, Layer: "nn", Name: "train", Lane: 1, Start: time.Millisecond, End: 2 * time.Millisecond}}
	var buf bytes.Buffer
	if err := writeTrace(&buf, list); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var cats []string
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" || e.Name == "" {
			t.Errorf("bad event %+v", e)
		}
		cats = append(cats, e.Cat)
	}
	sort.Strings(cats)
	if !reflect.DeepEqual(cats, []string{"bench", "nn"}) || tf.TraceEvents[1].TS != 1000 || tf.TraceEvents[1].Args["parent"] != 1 {
		t.Fatalf("trace %s", buf.Bytes())
	}
}
