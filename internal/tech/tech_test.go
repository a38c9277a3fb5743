package tech

import "testing"

func TestNodeKnown(t *testing.T) {
	for _, f := range Nodes() {
		n, err := Node(f)
		if err != nil {
			t.Fatalf("Node(%d): %v", f, err)
		}
		if n.FeatureNM != float64(f) {
			t.Errorf("Node(%d).FeatureNM = %v", f, n.FeatureNM)
		}
		if n.Vdd <= 0 || n.GateDelay <= 0 || n.GateCap <= 0 || n.GateLeakage <= 0 {
			t.Errorf("Node(%d) has non-positive parameter: %+v", f, n)
		}
	}
}

func TestNodeUnknown(t *testing.T) {
	if _, err := Node(77); err == nil {
		t.Fatal("Node(77) should fail")
	}
	if _, err := Interconnect(77); err == nil {
		t.Fatal("Interconnect(77) should fail")
	}
}

func TestMustNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNode(3) should panic")
		}
	}()
	MustNode(3)
}

func TestMustInterconnectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInterconnect(3) should panic")
		}
	}()
	MustInterconnect(3)
}

// Scaling down a CMOS node must shrink delay, energy and area monotonically.
func TestScalingMonotonic(t *testing.T) {
	nodes := Nodes()
	for i := 1; i < len(nodes); i++ {
		big, small := MustNode(nodes[i-1]), MustNode(nodes[i])
		if small.GateDelay >= big.GateDelay {
			t.Errorf("GateDelay not decreasing from %dnm to %dnm", nodes[i-1], nodes[i])
		}
		if small.GateEnergy() >= big.GateEnergy() {
			t.Errorf("GateEnergy not decreasing from %dnm to %dnm", nodes[i-1], nodes[i])
		}
		if small.GateArea() >= big.GateArea() {
			t.Errorf("GateArea not decreasing from %dnm to %dnm", nodes[i-1], nodes[i])
		}
		if small.GateLeakage <= big.GateLeakage {
			t.Errorf("GateLeakage should increase at smaller nodes (%dnm -> %dnm)", nodes[i-1], nodes[i])
		}
	}
}

// Wire resistance per segment must increase as interconnect shrinks; this
// drives the paper's observation that older interconnect nodes compute more
// accurately (Table IV picks 45nm wires over 28nm for accuracy).
func TestWireResistanceIncreases(t *testing.T) {
	nodes := InterconnectNodes()
	for i := 1; i < len(nodes); i++ {
		big, small := MustInterconnect(nodes[i-1]), MustInterconnect(nodes[i])
		if small.SegmentR <= big.SegmentR {
			t.Errorf("SegmentR not increasing from %dnm to %dnm", nodes[i-1], nodes[i])
		}
		if small.SegmentC >= big.SegmentC {
			t.Errorf("SegmentC not decreasing from %dnm to %dnm", nodes[i-1], nodes[i])
		}
	}
}

func TestNodesSortedDescending(t *testing.T) {
	for _, lst := range [][]int{Nodes(), InterconnectNodes()} {
		for i := 1; i < len(lst); i++ {
			if lst[i] >= lst[i-1] {
				t.Fatalf("node list not strictly descending: %v", lst)
			}
		}
	}
}
