package mapper

import (
	"math"
	"math/rand"
	"testing"

	"mnsim/internal/arch"
	"mnsim/internal/device"
	"mnsim/internal/periph"
	"mnsim/internal/tech"
)

func refDesign(size int, twoXbar bool, weightBits int) *arch.Design {
	return &arch.Design{
		CrossbarSize:      size,
		WeightPolarity:    2,
		TwoCrossbarSigned: twoXbar,
		WeightBits:        weightBits,
		DataBits:          8,
		CMOS:              tech.MustNode(45),
		Wire:              tech.MustInterconnect(45),
		Dev:               device.RRAM(),
		ADC:               periph.ADCVariableSA,
		Neuron:            periph.NeuronSigmoid,
		AreaCoefficient:   arch.DefaultAreaCoefficient,
	}
}

func randomWeights(rows, cols int, rng *rand.Rand) [][]float64 {
	w := make([][]float64, rows)
	for r := range w {
		w[r] = make([]float64, cols)
		for c := range w[r] {
			w[r][c] = rng.Float64()*2 - 1
		}
	}
	return w
}

func TestMapBlocksTiling(t *testing.T) {
	d := refDesign(64, true, 4)
	rng := rand.New(rand.NewSource(1))
	w := randomWeights(130, 70, rng)
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	// 130 rows over 64 -> 3 row blocks; 70 cols over 64 logical -> 2.
	if len(img.Blocks) != 6 {
		t.Fatalf("got %d blocks, want 6", len(img.Blocks))
	}
	// The trailing block is partial.
	last := img.Blocks[len(img.Blocks)-1]
	if last.Rows != 130-128 || last.LogicalCols != 70-64 {
		t.Fatalf("last block %dx%d", last.Rows, last.LogicalCols)
	}
	// Two crossbars per unit (signed method 1).
	if len(img.Blocks[0].Cells) != 2 {
		t.Fatalf("crossbars per unit = %d", len(img.Blocks[0].Cells))
	}
}

// The core contract: Map then Reconstruct reproduces the weights within
// the quantization error of WeightBits (plus the cell-level rounding).
func TestMapReconstructRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		name    string
		twoXbar bool
		bits    int
	}{
		{"two-crossbar-4bit", true, 4},
		{"same-crossbar-4bit", false, 4},
		{"two-crossbar-8bit-sliced", true, 8},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			d := refDesign(64, cfg.twoXbar, cfg.bits)
			rng := rand.New(rand.NewSource(7))
			w := randomWeights(100, 40, rng)
			img, err := Map(d, w)
			if err != nil {
				t.Fatal(err)
			}
			got, err := img.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			magBits := cfg.bits - 1
			lsb := img.Scale / float64((int(1)<<uint(magBits))-1)
			// Cell-level rounding can add up to half an LSB per slice.
			tol := lsb * 1.5
			for r := range w {
				for c := range w[r] {
					if math.Abs(got[r][c]-w[r][c]) > tol {
						t.Fatalf("(%d,%d): reconstructed %v vs %v (tol %v)", r, c, got[r][c], w[r][c], tol)
					}
				}
			}
		})
	}
}

// Signed weights land on the correct polarity crossbar.
func TestSignedSplit(t *testing.T) {
	d := refDesign(8, true, 4)
	w := [][]float64{{0.5, -0.5}}
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Blocks[0]
	// Weight (0,0) is positive: crossbar 0 carries it, crossbar 1 is zero.
	if blk.Cells[0][0][0].Level == 0 {
		t.Error("positive weight missing from crossbar 0")
	}
	if blk.Cells[1][0][0].Level != 0 {
		t.Error("positive weight leaked onto the negative crossbar")
	}
	// Weight (0,1) is negative: reversed.
	if blk.Cells[1][0][1].Level == 0 {
		t.Error("negative weight missing from crossbar 1")
	}
	if blk.Cells[0][0][1].Level != 0 {
		t.Error("negative weight leaked onto the positive crossbar")
	}
}

func TestSameCrossbarPairedColumns(t *testing.T) {
	d := refDesign(8, false, 4)
	w := [][]float64{{-1}}
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Blocks[0]
	if len(blk.Cells) != 1 {
		t.Fatalf("crossbars = %d, want 1", len(blk.Cells))
	}
	// Column 0 = positive part (zero), column 1 = negative part (full).
	if blk.Cells[0][0][0].Level != 0 {
		t.Error("positive column should be zero")
	}
	if blk.Cells[0][0][1].Level != d.Dev.Levels()-1 {
		t.Errorf("negative column level = %d, want full scale", blk.Cells[0][0][1].Level)
	}
}

// 8-bit weights on 7-bit cells use two slices; the high slice carries the
// most-significant bits.
func TestBitSlicing(t *testing.T) {
	d := refDesign(8, true, 8)
	if d.BitSlices() != 2 {
		t.Fatalf("slices = %d", d.BitSlices())
	}
	w := [][]float64{{1.0}}
	img, err := Map(d, w)
	if err != nil {
		t.Fatal(err)
	}
	blk := img.Blocks[0]
	// 8-bit signed weights carry 7 magnitude bits; on 7-bit cells the low
	// slice holds all of them and the provisioned top slice carries none.
	if blk.Cells[0][0][0].Level != 0 {
		t.Fatalf("top slice level = %d, want 0 (no magnitude bits left)", blk.Cells[0][0][0].Level)
	}
	if blk.Cells[0][0][1].Level != d.Dev.Levels()-1 {
		t.Fatalf("low slice level = %d, want full scale", blk.Cells[0][0][1].Level)
	}
	// On 4-bit cells (the PRIME configuration) both slices are used.
	d2 := refDesign(8, true, 8)
	d2.Dev.LevelBits = 4
	img2, err := Map(d2, w)
	if err != nil {
		t.Fatal(err)
	}
	blk2 := img2.Blocks[0]
	if blk2.Cells[0][0][0].Level != d2.Dev.Levels()-1 || blk2.Cells[0][0][1].Level != d2.Dev.Levels()-1 {
		t.Fatalf("4-bit-cell slices of full-scale weight: %+v", blk2.Cells[0][0][:2])
	}
}

func TestMapErrors(t *testing.T) {
	d := refDesign(64, true, 4)
	if _, err := Map(d, nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := Map(d, [][]float64{{}}); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := Map(d, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Map(d, [][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN accepted")
	}
	bad := refDesign(64, true, 0)
	if _, err := Map(bad, [][]float64{{1}}); err == nil {
		t.Error("invalid design accepted")
	}
	uns := refDesign(64, true, 4)
	uns.WeightPolarity = 1
	uns.TwoCrossbarSigned = false
	if _, err := Map(uns, [][]float64{{-1}}); err == nil {
		t.Error("negative weight accepted by unsigned design")
	}
}

func TestZeroMatrixScale(t *testing.T) {
	d := refDesign(8, true, 4)
	img, err := Map(d, [][]float64{{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := img.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0 || got[0][1] != 0 {
		t.Fatalf("zero matrix reconstructed as %v", got)
	}
}

func TestWriteProgramAndCellCount(t *testing.T) {
	d := refDesign(64, true, 4)
	rng := rand.New(rand.NewSource(3))
	img, err := Map(d, randomWeights(64, 64, rng))
	if err != nil {
		t.Fatal(err)
	}
	// 64x64 weights, 1 slice, 2 crossbars -> 2*64*64 cells.
	if got := img.CellCount(); got != 2*64*64 {
		t.Fatalf("cell count = %d", got)
	}
	// A WRITE of the image's cells runs on a matching accelerator.
	a, err := arch.NewAccelerator(d, []arch.LayerDims{{Rows: 64, Cols: 64, Passes: 1}}, [2]int{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	ctl := arch.Controller{Accel: a}
	if _, err := ctl.Run([]arch.Instruction{{Op: arch.OpWrite, Bank: 0, Count: img.CellCount()}}); err != nil {
		t.Fatal(err)
	}
}

// Property: reconstruction error is bounded for random shapes and designs.
func TestRoundTripRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(100)
		cols := 1 + rng.Intn(100)
		d := refDesign(32, rng.Intn(2) == 0, 4)
		w := randomWeights(rows, cols, rng)
		img, err := Map(d, w)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := img.Reconstruct()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lsb := img.Scale / 7 // 3 magnitude bits
		for r := range w {
			for c := range w[r] {
				if math.Abs(got[r][c]-w[r][c]) > 1.5*lsb {
					t.Fatalf("trial %d (%d,%d): %v vs %v", trial, r, c, got[r][c], w[r][c])
				}
			}
		}
	}
}

// Property: every logical weight programs exactly CellsPerWeight cells per
// crossbar pair, whatever the shape or mapping, so the total cell count is
// weights × CellsPerWeight × crossbars-per-unit ÷ column sharing — checked
// directly against the per-weight invariant.
func TestCellCountFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		d := refDesign(32, trial%2 == 0, 4)
		rows, cols := 1+rng.Intn(90), 1+rng.Intn(90)
		img, err := Map(d, randomWeights(rows, cols, rng))
		if err != nil {
			t.Fatal(err)
		}
		// Every crossbar of a block allocates LogicalCols × CellsPerWeight
		// physical columns over the block's rows.
		want := 0
		for i := range img.Blocks {
			blk := &img.Blocks[i]
			want += len(blk.Cells) * blk.Rows * blk.LogicalCols * d.CellsPerWeight()
		}
		if got := img.CellCount(); got != want {
			t.Fatalf("trial %d: CellCount %d vs formula %d", trial, got, want)
		}
	}
}
