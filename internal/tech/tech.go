// Package tech provides the CMOS and interconnect technology substrate used
// by every performance model in MNSIM.
//
// The original MNSIM pulls per-node device and wire parameters from CACTI,
// NVSim, and the Predictive Technology Model (PTM). Those tools are consumed
// purely as lookup tables of technology constants, so this package embeds
// equivalent per-node tables (130 nm down to 18 nm).
//
// Two independent axes are modelled, matching the paper's configuration list
// (Table I): the CMOS logic node (CMOS_Tech, used for peripheral circuits)
// and the interconnect node (Interconnect_Tech, used for the crossbar wire
// resistance that drives the computing-accuracy model).
package tech

import (
	"fmt"
	"sort"
)

// CMOSNode holds the per-node CMOS logic parameters needed by the
// transistor-level reference designs of the peripheral modules.
type CMOSNode struct {
	// FeatureNM is the technology feature size F in nanometres.
	FeatureNM float64
	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// GateDelay is the FO4 inverter delay in seconds; composite logic
	// delays are expressed as multiples of this.
	GateDelay float64
	// GateCap is the switched capacitance of a minimum-size gate in farads.
	GateCap float64
	// GateLeakage is the static leakage power of a minimum-size gate in watts.
	GateLeakage float64
	// RegEnergy is the energy of one register (flip-flop) toggle in joules.
	RegEnergy float64
	// RegArea is the layout area of one register in square micrometres.
	RegArea float64
}

// GateEnergy returns the dynamic energy of one minimum-size gate switching
// event, E = C * Vdd^2, in joules.
func (n CMOSNode) GateEnergy() float64 { return n.GateCap * n.Vdd * n.Vdd }

// GateArea returns the layout area of a minimum-size logic gate in square
// micrometres. A standard-cell gate occupies roughly 120 F^2 of drawn area
// once routing overhead is included.
func (n CMOSNode) GateArea() float64 {
	f := n.FeatureNM * 1e-3 // um
	return 120 * f * f
}

// WireTech holds the interconnect parameters of one metal technology node.
// SegmentR and SegmentC are the resistance and capacitance of the wire
// segment spanning one crossbar cell pitch; these drive the accuracy model
// (Section VI.B of the paper) and the crossbar Elmore delay.
type WireTech struct {
	// FeatureNM is the interconnect half-pitch in nanometres.
	FeatureNM float64
	// SegmentR is the wire resistance between two neighbouring cells in ohms.
	SegmentR float64
	// SegmentC is the wire capacitance between two neighbouring cells in farads.
	SegmentC float64
}

// Built-in CMOS node table. Delay, capacitance, and leakage follow
// constant-field scaling anchored on published 90 nm and 45 nm data points
// (PTM bulk models); leakage grows super-linearly below 45 nm as in CACTI.
var cmosNodes = map[int]CMOSNode{
	130: {130, 1.30, 52e-12, 2.60e-15, 9.0e-9, 10.4e-15, 5.20},
	90:  {90, 1.20, 36e-12, 1.80e-15, 15.0e-9, 7.20e-15, 2.60},
	65:  {65, 1.10, 26e-12, 1.30e-15, 22.0e-9, 5.10e-15, 1.40},
	45:  {45, 1.00, 18e-12, 0.90e-15, 32.0e-9, 3.40e-15, 0.68},
	32:  {32, 0.90, 13e-12, 0.64e-15, 45.0e-9, 2.30e-15, 0.35},
	28:  {28, 0.90, 11e-12, 0.56e-15, 52.0e-9, 2.00e-15, 0.27},
	22:  {22, 0.80, 9.0e-12, 0.44e-15, 64.0e-9, 1.50e-15, 0.17},
	18:  {18, 0.80, 7.5e-12, 0.36e-15, 78.0e-9, 1.20e-15, 0.11},
}

// Built-in interconnect node table. Wire resistance per cell pitch rises as
// the node shrinks (narrower, thinner copper plus size effects on
// resistivity); capacitance per pitch falls slowly. Anchored on ITRS-style
// copper data: at 45 nm roughly 1.3 ohm per 2F pitch, doubling every two
// generations.
var wireNodes = map[int]WireTech{
	90: {90, 0.16, 0.18e-15},
	45: {45, 0.50, 0.11e-15},
	36: {36, 0.75, 0.10e-15},
	28: {28, 1.05, 0.090e-15},
	22: {22, 1.50, 0.080e-15},
	18: {18, 2.10, 0.072e-15},
}

// Node returns the CMOS parameters of the requested feature size in
// nanometres. Only the tabulated nodes are accepted; use Nodes to discover
// them.
func Node(featureNM int) (CMOSNode, error) {
	n, ok := cmosNodes[featureNM]
	if !ok {
		return CMOSNode{}, fmt.Errorf("tech: unknown CMOS node %dnm (known: %v)", featureNM, Nodes())
	}
	return n, nil
}

// MustNode is like Node but panics on unknown nodes. It is intended for
// package-internal tables and tests where the node is a compile-time constant.
func MustNode(featureNM int) CMOSNode {
	n, err := Node(featureNM)
	if err != nil {
		panic(err)
	}
	return n
}

// Interconnect returns the wire parameters of the requested interconnect
// node in nanometres.
func Interconnect(featureNM int) (WireTech, error) {
	w, ok := wireNodes[featureNM]
	if !ok {
		return WireTech{}, fmt.Errorf("tech: unknown interconnect node %dnm (known: %v)", featureNM, InterconnectNodes())
	}
	return w, nil
}

// MustInterconnect is like Interconnect but panics on unknown nodes.
func MustInterconnect(featureNM int) WireTech {
	w, err := Interconnect(featureNM)
	if err != nil {
		panic(err)
	}
	return w
}

// Nodes lists the tabulated CMOS feature sizes in descending order.
func Nodes() []int {
	out := make([]int, 0, len(cmosNodes))
	for f := range cmosNodes {
		out = append(out, f)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// InterconnectNodes lists the tabulated interconnect feature sizes in
// descending order.
func InterconnectNodes() []int {
	out := make([]int, 0, len(wireNodes))
	for f := range wireNodes {
		out = append(out, f)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
