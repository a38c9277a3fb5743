package arch

import (
	"math"
	"testing"
)

func TestBreakdownReconciles(t *testing.T) {
	b, err := NewBank(refDesign(128, 0), LayerDims{Rows: 2048, Cols: 1024, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	bd := b.Breakdown()
	if len(bd) != len(Classes()) {
		t.Fatalf("breakdown has %d classes", len(bd))
	}
	totalArea := 0.0
	for _, c := range Classes() {
		p, ok := bd[c]
		if !ok {
			t.Fatalf("class %s missing", c)
		}
		if p.Area < 0 || p.DynamicEnergy < 0 {
			t.Fatalf("class %s negative: %+v", c, p)
		}
		totalArea += p.Area
	}
	// The breakdown must reconcile with the aggregated bank area within a
	// couple percent (counters and pipeline registers are not classed).
	if rel := math.Abs(totalArea-b.PassPerf.Area) / b.PassPerf.Area; rel > 0.02 {
		t.Fatalf("breakdown area %v vs bank %v (%.1f%% apart)", totalArea, b.PassPerf.Area, rel*100)
	}
}

// Section V.C: the read circuits dominate — "ADC circuits take about half
// of the area and energy consumptions in memristor-based DNNs and CNNs".
func TestADCDominatesAtFullParallelism(t *testing.T) {
	b, err := NewBank(refDesign(128, 0), LayerDims{Rows: 2048, Cols: 1024, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	bd := b.Breakdown()
	share := ShareOf(bd, ClassADC)
	if share < 0.3 {
		t.Fatalf("ADC area share %.2f, want the dominant fraction", share)
	}
	if SortedByArea(bd)[0] != ClassADC {
		t.Fatalf("largest class = %s, want adc", SortedByArea(bd)[0])
	}
	// Reducing the parallelism degree slashes the ADC share — the Fig. 7
	// area trade-off mechanism.
	serial, err := NewBank(refDesign(128, 1), LayerDims{Rows: 2048, Cols: 1024, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	bdSerial := serial.Breakdown()
	if ShareOf(bdSerial, ClassADC) >= share {
		t.Fatalf("serial ADC share %.2f not below parallel %.2f", ShareOf(bdSerial, ClassADC), share)
	}
}

func TestShareOfEmpty(t *testing.T) {
	if ShareOf(nil, ClassADC) != 0 {
		t.Fatal("empty breakdown share should be 0")
	}
}

func TestBreakdownCNNHasBuffers(t *testing.T) {
	d := refDesign(128, 0)
	conv := LayerDims{Rows: 1152, Cols: 256, Passes: 196, PoolK: 2, OutBufLen: 30, OutChannels: 256}
	b, err := NewBank(d, conv)
	if err != nil {
		t.Fatal(err)
	}
	bd := b.Breakdown()
	fc, err := NewBank(d, LayerDims{Rows: 1152, Cols: 256, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	bdFC := fc.Breakdown()
	if bd[ClassBuffer].Area <= bdFC[ClassBuffer].Area {
		t.Fatal("CNN pooling chain should grow the buffer class")
	}
}
