package periph

import (
	"fmt"
	"math/bits"

	"mnsim/internal/tech"
)

// Decoder models the row/column address decoder of a crossbar (Fig. 4).
// lines is the number of crossbar lines to select among. When
// computeOriented is true the design is the paper's modified decoder of
// Fig. 4(b): a NOR gate per line lets a single control signal turn on every
// transfer gate at once for the COMPUTE instruction, at the cost of one
// extra gate level and one NOR plus control routing per line.
func Decoder(n tech.CMOSNode, lines int, computeOriented bool) (Perf, error) {
	if lines < 1 {
		return Perf{}, fmt.Errorf("periph: decoder needs at least 1 line, got %d", lines)
	}
	addrBits := ceilLog2(lines)
	if addrBits == 0 {
		addrBits = 1
	}
	ga, ge, gl, gd := n.GateArea(), n.GateEnergy(), n.GateLeakage, n.GateDelay
	fl := float64(lines)
	// Per line: an address AND tree (~addrBits gates) plus a transfer gate.
	p := Perf{
		Area:          fl * (float64(addrBits)*ga + 2*ga),
		DynamicEnergy: float64(addrBits)*ge + 2*ge, // one line switches in READ/WRITE
		StaticPower:   fl * float64(addrBits+1) * 0.5 * gl,
		Latency:       float64(depthOf(addrBits)) * gd,
	}
	if computeOriented {
		p.Area += fl * ga              // one NOR per line
		p.DynamicEnergy += fl * ge     // COMPUTE flips every line
		p.StaticPower += fl * 0.5 * gl // NOR leakage
		p.Latency += gd                // one extra gate level
	}
	return p, nil
}

// depthOf is the AND-tree depth for the given address width.
func depthOf(addrBits int) int {
	d := ceilLog2(addrBits)
	if d < 1 {
		d = 1
	}
	return d + 1
}

// Adder models a bits-wide ripple-carry adder (~5 gates per full adder).
func Adder(n tech.CMOSNode, bits int) (Perf, error) {
	if err := checkBits("adder", bits); err != nil {
		return Perf{}, err
	}
	fb := float64(bits)
	return Perf{
		Area:          fb * 5 * n.GateArea(),
		DynamicEnergy: fb * 5 * n.GateEnergy(),
		StaticPower:   fb * 5 * n.GateLeakage,
		Latency:       fb * 2 * n.GateDelay, // carry ripple
	}, nil
}

// Subtractor models a bits-wide subtractor: an adder plus an inverter row,
// used to merge the two crossbars of a signed-weight computation unit
// (Section III.C.1 method 1).
func Subtractor(n tech.CMOSNode, bits int) (Perf, error) {
	add, err := Adder(n, bits)
	if err != nil {
		return Perf{}, err
	}
	fb := float64(bits)
	return add.Plus(Perf{
		Area:          fb * n.GateArea(),
		DynamicEnergy: fb * n.GateEnergy(),
		StaticPower:   fb * n.GateLeakage,
	}), nil
}

// Shifter models a barrel shifter with shift range maxShift, used with the
// adder tree to merge the bit-sliced crossbars holding high and low weight
// bits (Section III.B.2).
func Shifter(n tech.CMOSNode, bits, maxShift int) (Perf, error) {
	if err := checkBits("shifter", bits); err != nil {
		return Perf{}, err
	}
	if maxShift < 0 {
		return Perf{}, fmt.Errorf("periph: negative shift range %d", maxShift)
	}
	stages := ceilLog2(maxShift + 1)
	if stages < 1 {
		stages = 1
	}
	fs, fb := float64(stages), float64(bits)
	return Perf{
		Area:          fs * fb * 3 * n.GateArea(),
		DynamicEnergy: fs * fb * 3 * n.GateEnergy(),
		StaticPower:   fs * fb * 3 * n.GateLeakage,
		Latency:       fs * n.GateDelay,
	}, nil
}

// AdderTree models the binary merge tree of Fig. 1(c): inputs operands of
// the given bit width are summed pairwise. The result width grows by one
// bit per level; the latency is the sum of the per-level adder delays.
func AdderTree(n tech.CMOSNode, inputs, bits int) (Perf, error) {
	if inputs < 1 {
		return Perf{}, fmt.Errorf("periph: adder tree needs at least 1 input, got %d", inputs)
	}
	if err := checkBits("adder tree", bits); err != nil {
		return Perf{}, err
	}
	var out Perf
	width := bits
	remaining := inputs
	for remaining > 1 {
		adders := remaining / 2
		a, err := Adder(n, width)
		if err != nil {
			return Perf{}, err
		}
		level := a.Scale(adders)
		out.Area += level.Area
		out.DynamicEnergy += level.DynamicEnergy
		out.StaticPower += level.StaticPower
		out.Latency += a.Latency
		remaining = adders + remaining%2
		if width < 64 {
			width++
		}
	}
	return out, nil
}

// Mux models a ways-to-1 multiplexer of the given data width; the read
// circuit's control module routes crossbar columns to the shared ADCs with
// these (Section III.C.4).
func Mux(n tech.CMOSNode, ways, bits int) (Perf, error) {
	if ways < 1 {
		return Perf{}, fmt.Errorf("periph: mux needs at least 1 way, got %d", ways)
	}
	if err := checkBits("mux", bits); err != nil {
		return Perf{}, err
	}
	stages := ceilLog2(ways)
	if stages < 1 {
		stages = 1
	}
	f := float64((ways - 1) * bits)
	return Perf{
		Area:          f * 2 * n.GateArea(),
		DynamicEnergy: float64(bits*stages) * 2 * n.GateEnergy(),
		StaticPower:   f * 2 * n.GateLeakage,
		Latency:       float64(stages) * n.GateDelay,
	}, nil
}

// Counter models the digital counter that sequences the column groups when
// the computation parallelism degree is below the column count
// (Section III.C.4).
func Counter(n tech.CMOSNode, bits int) (Perf, error) {
	if err := checkBits("counter", bits); err != nil {
		return Perf{}, err
	}
	fb := float64(bits)
	return Perf{
		Area:          fb*n.RegArea + fb*3*n.GateArea(),
		DynamicEnergy: fb*n.RegEnergy + fb*n.GateEnergy(),
		StaticPower:   fb * 4 * n.GateLeakage,
		Latency:       2 * n.GateDelay,
	}, nil
}

func ceilLog2(v int) int {
	if v <= 1 {
		return 0
	}
	return bits.Len(uint(v - 1))
}
