package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mnsim/internal/circuit"
	"mnsim/internal/validate"
)

var update = flag.Bool("update", false, "rewrite golden_table2.json from the program's current output")

func TestPercentileSampleCount(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // 50..1, unsorted
	}
	if v, beyond := percentile(xs, 0.8); v != 40 || beyond != 10 {
		t.Errorf("p80 of 1..50 = %v with %d beyond, want 40 with 10", v, beyond)
	}
	if v, beyond := percentile(xs[:49], 0.8); beyond != 9 {
		t.Errorf("p80 of 49 samples = %v with %d beyond, want 9 beyond", v, beyond)
	}
	if v, beyond := percentile(xs, 0.5); v != 25 || beyond != 25 {
		t.Errorf("p50 of 1..50 = %v with %d beyond, want 25 with 25", v, beyond)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// op: 100 minus the union [10,60] ∪ [90,100] = 40.
	want := map[int]int64{1: 40, 2: 20, 3: 30, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

// TestGoldenTable2 runs op 0 of a default-seed table2 run against the
// pinned rows, then with its golden digest perturbed: every op then fails,
// so the error rate is 1. With -update it regenerates the golden file.
func TestGoldenTable2(t *testing.T) {
	ctx := context.Background()
	if *update {
		writeGolden(t)
	}
	golden := goldenFor(defaultSeed)
	if _, ok := golden[0]; !ok {
		t.Fatal("no golden digest for op 0")
	}
	w := &table2{seed: defaultSeed, golden: golden}
	got, err := runOps(ctx, w, []int{0})
	if err != nil || got.failed != 0 {
		t.Fatalf("op 0 against the golden rows: %+v, %v", got, err)
	}
	perturbed := map[int]string{}
	for k, v := range golden {
		perturbed[k] = v
	}
	perturbed[0] = strings.Repeat("0", 16)
	w.golden = perturbed
	got, err = runOps(ctx, w, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if rate := float64(got.failed) / float64(got.attempted); rate != 1 {
		t.Errorf("error_rate with a perturbed golden value = %v, want 1", rate)
	}
}

// writeGolden pins the rows of every warm-up op of the three setup rounds
// and of the first 128 timed ops.
func writeGolden(t *testing.T) {
	var idx []int
	for r := 0; r < setupRounds; r++ {
		idx = append(idx, warmIndices(r, 24)...)
	}
	for i := 0; i < 128; i++ {
		idx = append(idx, i)
	}
	g := goldenFile{Seed: defaultSeed, Digests: map[string]string{}}
	for _, i := range idx {
		rows, err := validate.TableII(table2Options(defaultSeed, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRows(rows, nil, i); err != nil {
			t.Fatal(err)
		}
		g.Digests[strconv.Itoa(i)] = rowsDigest(rows)
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden_table2.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	goldenTable2JSON = b
}

func TestCheckSolveFlagsPowerMismatch(t *testing.T) {
	w := &cold256{seed: defaultSeed}
	if _, err := w.setup(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	c, vin, err := w.crossbar(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Solve(vin, circuit.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSolve(c, vin, res); err != nil {
		t.Fatalf("solve fails its own check: %v", err)
	}
	res.Power *= 1 + 1e-5
	if err := checkSolve(c, vin, res); err == nil {
		t.Error("a 1e-5 power mismatch passed the check")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, program has %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer %+v, program has %+v", spec.PerLayer, perLayer)
	}
}

func TestSummarizeRefusesOtherMachine(t *testing.T) {
	a := record{Set: "A", Meta: newMeta("table2", 1, false, 50)}
	b := a
	b.Set = "B"
	var out bytes.Buffer
	if err := summarize(&out, []record{a, b}); err != nil {
		t.Fatalf("same machine refused: %v", err)
	}
	b.Meta.NumCPU++
	if err := summarize(&out, []record{a, b}); err == nil || !strings.Contains(err.Error(), "different machines") {
		t.Errorf("runs from another machine were compared (err %v)", err)
	}
}

func TestServeRefAnswersEachRequest(t *testing.T) {
	var out bytes.Buffer
	if err := serveRef(bytes.NewReader([]byte{1, 1}), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d answers to 2 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if _, _, err := parseRefLine(l); err != nil {
			t.Error(err)
		}
	}
}

func TestNewResultRejectsNonFinite(t *testing.T) {
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.Name] = 1
	}
	if _, err := newResult(tally{attempted: 1}, m, endToEnd); err != nil {
		t.Fatal(err)
	}
	m["op_p50_ms"] = math.NaN()
	if _, err := newResult(tally{attempted: 1}, m, endToEnd); err == nil {
		t.Error("a NaN metric was accepted")
	}
}
