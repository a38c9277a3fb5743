package arch

import (
	"math"
	"testing"
)

// The inner-layer pipeline (future-work feature) must shrink the bank's
// cycle to its slowest stage, add register area, and stretch a single
// pass's fill latency across Stages cycles.
func TestInnerPipelineBank(t *testing.T) {
	layer := LayerDims{Rows: 2048, Cols: 1024, Passes: 196, PoolK: 2}
	pb, err := NewBank(refDesign(128, 0), layer)
	if err != nil {
		t.Fatal(err)
	}
	piped := refDesign(128, 0)
	piped.InnerPipeline = true
	ib, err := NewBank(piped, layer)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Stages != 1 {
		t.Errorf("plain bank stages = %d", pb.Stages)
	}
	if ib.Stages < 6 {
		t.Errorf("pipelined bank stages = %d, want >= 6", ib.Stages)
	}
	if ib.PassPerf.Latency >= pb.PassPerf.Latency {
		t.Errorf("pipeline interval %v not below chain latency %v", ib.PassPerf.Latency, pb.PassPerf.Latency)
	}
	if ib.PassPerf.Area <= pb.PassPerf.Area {
		t.Error("pipeline registers should add area")
	}
	// Throughput: many passes stream through faster.
	if ib.SampleLatency >= pb.SampleLatency {
		t.Errorf("pipelined sample latency %v not below %v", ib.SampleLatency, pb.SampleLatency)
	}
	// The sample drains after passes·readCycles plus the fill.
	cycle := ib.PassPerf.Latency / float64(ib.Unit.Cycles)
	wantCycles := float64(layer.Passes*ib.Unit.Cycles + ib.Stages - 1)
	if math.Abs(ib.SampleLatency/cycle-wantCycles) > 1e-6 {
		t.Errorf("sample cycles = %v, want %v", ib.SampleLatency/cycle, wantCycles)
	}
}

// The pipeline is throughput-neutral for single-pass FC layers (fill
// overhead only), so energy per pass must not change materially.
func TestInnerPipelineEnergyOverheadSmall(t *testing.T) {
	layer := LayerDims{Rows: 512, Cols: 512, Passes: 1}
	plain, err := NewBank(refDesign(128, 0), layer)
	if err != nil {
		t.Fatal(err)
	}
	piped := refDesign(128, 0)
	piped.InnerPipeline = true
	pb, err := NewBank(piped, layer)
	if err != nil {
		t.Fatal(err)
	}
	overhead := pb.PassPerf.DynamicEnergy/plain.PassPerf.DynamicEnergy - 1
	if overhead < 0 || overhead > 0.10 {
		t.Fatalf("pipeline energy overhead %v outside [0, 10%%]", overhead)
	}
}
