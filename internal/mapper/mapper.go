// Package mapper implements the weight-mapping step of MNSIM's software
// flow (Fig. 3): a trained weight matrix is decomposed onto the physical
// crossbars of a computation bank — split into row/column blocks (Eq. 5),
// signed weights separated per the design's polarity mapping
// (Section III.C.1), wide weights bit-sliced across cells
// (Section III.B.2), and each cell quantized to a programmable device
// level. The resulting image drives WRITE programs and circuit-level
// simulation, and can be read back to verify the stored network.
package mapper

import (
	"fmt"
	"math"

	"mnsim/internal/arch"
)

// CellAssignment locates one programmed cell inside the bank.
type CellAssignment struct {
	// Level is the programmed device level index.
	Level int
	// Resistance is the calibrated resistance of that level in ohms.
	Resistance float64
}

// Block is the programming image of one computation unit: the cell levels
// of each physical crossbar in the unit, indexed [crossbar][row][col].
type Block struct {
	// RowBlock and ColBlock locate the unit in the bank's tiling.
	RowBlock, ColBlock int
	// Rows and LogicalCols give the block's logical weight shape.
	Rows, LogicalCols int
	// Cells holds the per-crossbar programming image; Cells[x][r][c] is the
	// assignment of physical cell (r, c) on crossbar x of the unit.
	Cells [][][]CellAssignment
}

// Image is the full programming image of one layer on one bank.
type Image struct {
	Design *arch.Design
	// Rows and Cols are the layer's logical weight shape.
	Rows, Cols int
	// Blocks holds one entry per computation unit, row-major over
	// (RowBlock, ColBlock).
	Blocks []Block
	// Scale is the weight magnitude one full-scale cell represents; weights
	// are normalised by the matrix's maximum magnitude before quantization.
	Scale float64
}

// Map decomposes a signed weight matrix (weights[r][c], any real values)
// onto the design's crossbars.
func Map(d *arch.Design, weights [][]float64) (*Image, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	rows := len(weights)
	if rows == 0 {
		return nil, fmt.Errorf("mapper: empty weight matrix")
	}
	cols := len(weights[0])
	if cols == 0 {
		return nil, fmt.Errorf("mapper: empty weight rows")
	}
	maxMag := 0.0
	for r, row := range weights {
		if len(row) != cols {
			return nil, fmt.Errorf("mapper: ragged weight matrix at row %d", r)
		}
		for _, w := range row {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("mapper: non-finite weight at row %d", r)
			}
			if m := math.Abs(w); m > maxMag {
				maxMag = m
			}
		}
	}
	if maxMag == 0 {
		maxMag = 1
	}
	if d.WeightPolarity == 1 {
		for r, row := range weights {
			for _, w := range row {
				if w < 0 {
					return nil, fmt.Errorf("mapper: negative weight at row %d but Weight_Polarity is 1", r)
				}
			}
		}
	}
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	if logicalCols < 1 {
		return nil, fmt.Errorf("mapper: crossbar size %d cannot hold one %d-bit weight", s, d.WeightBits)
	}
	img := &Image{Design: d, Rows: rows, Cols: cols, Scale: maxMag}
	rowBlocks := (rows + s - 1) / s
	colBlocks := (cols + logicalCols - 1) / logicalCols
	for rb := 0; rb < rowBlocks; rb++ {
		for cb := 0; cb < colBlocks; cb++ {
			blk, err := mapBlock(d, weights, maxMag, rb, cb, s, logicalCols, rows, cols)
			if err != nil {
				return nil, err
			}
			img.Blocks = append(img.Blocks, *blk)
		}
	}
	return img, nil
}

// mapBlock builds one unit's image.
func mapBlock(d *arch.Design, weights [][]float64, scale float64, rb, cb, s, logicalCols, rows, cols int) (*Block, error) {
	r0 := rb * s
	c0 := cb * logicalCols
	blockRows := minInt(s, rows-r0)
	blockCols := minInt(logicalCols, cols-c0)
	nXbar := d.CrossbarsPerUnit()
	blk := &Block{RowBlock: rb, ColBlock: cb, Rows: blockRows, LogicalCols: blockCols}
	blk.Cells = make([][][]CellAssignment, nXbar)
	physCols := blockCols * d.CellsPerWeight()
	for x := range blk.Cells {
		blk.Cells[x] = make([][]CellAssignment, blockRows)
		for r := range blk.Cells[x] {
			blk.Cells[x][r] = make([]CellAssignment, physCols)
		}
	}
	slices := d.BitSlices()
	cellBits := d.Dev.LevelBits
	for r := 0; r < blockRows; r++ {
		for c := 0; c < blockCols; c++ {
			w := weights[r0+r][c0+c] / scale
			pos, neg := w, 0.0
			if w < 0 {
				pos, neg = 0, -w
			}
			if err := programWeight(d, blk, r, c, pos, neg, slices, cellBits); err != nil {
				return nil, err
			}
		}
	}
	return blk, nil
}

// programWeight writes one logical weight's cells. The magnitude is first
// quantized to WeightBits, then split into big-endian slices of cellBits
// each.
func programWeight(d *arch.Design, blk *Block, r, c int, pos, neg float64, slices, cellBits int) error {
	magBits := d.WeightBits
	if d.WeightPolarity == 2 {
		magBits-- // one bit is the sign
		if magBits < 1 {
			magBits = 1
		}
	}
	maxCode := (1 << uint(magBits)) - 1
	codePos := int(math.Round(pos * float64(maxCode)))
	codeNeg := int(math.Round(neg * float64(maxCode)))
	write := func(xbar, physCol, code int) error {
		// Split code into `slices` groups of cellBits, most significant
		// slice first. A slice's code range is set by the magnitude bits it
		// actually carries (the top slice may be partial), and that range
		// is stretched over the device's full level range.
		for sl := 0; sl < slices; sl++ {
			shift := uint((slices - 1 - sl) * cellBits)
			cellCode := (code >> shift) & ((1 << uint(cellBits)) - 1)
			lvl := scaleLevel(cellCode, sliceMax(magBits, slices, cellBits, sl), d.Dev.Levels()-1)
			res, err := d.Dev.LevelResistance(lvl)
			if err != nil {
				return err
			}
			blk.Cells[xbar][r][physCol+sl] = CellAssignment{Level: lvl, Resistance: res}
		}
		return nil
	}
	switch {
	case d.WeightPolarity == 1:
		return write(0, c*slices, codePos)
	case d.TwoCrossbarSigned:
		// Method (1): crossbar 0 holds positive parts, crossbar 1 negative.
		if err := write(0, c*slices, codePos); err != nil {
			return err
		}
		return write(1, c*slices, codeNeg)
	default:
		// Method (2): paired columns in the same crossbar.
		if err := write(0, c*2*slices, codePos); err != nil {
			return err
		}
		return write(0, c*2*slices+slices, codeNeg)
	}
}

// scaleLevel maps a cell code in [0, fromMax] onto a device level in
// [0, toMax].
func scaleLevel(code, fromMax, toMax int) int {
	if fromMax <= 0 {
		return 0
	}
	return int(math.Round(float64(code) / float64(fromMax) * float64(toMax)))
}

// sliceMax returns the largest code slice sl (0 = most significant) can
// carry when magBits magnitude bits are spread big-endian over `slices`
// groups of cellBits: low slices are full, the top slice holds the
// remainder (possibly zero bits).
func sliceMax(magBits, slices, cellBits, sl int) int {
	avail := magBits - (slices-1-sl)*cellBits
	if avail <= 0 {
		return 0
	}
	if avail > cellBits {
		avail = cellBits
	}
	return (1 << uint(avail)) - 1
}

// Reconstruct reads the image back into a weight matrix (values in the
// original scale). Round-tripping Map→Reconstruct reproduces the weights up
// to the quantization error of WeightBits — the verification step after
// programming.
func (img *Image) Reconstruct() ([][]float64, error) {
	d := img.Design
	out := make([][]float64, img.Rows)
	for r := range out {
		out[r] = make([]float64, img.Cols)
	}
	s := d.CrossbarSize
	logicalCols := s / d.CellsPerWeight()
	slices := d.BitSlices()
	cellBits := d.Dev.LevelBits
	magBits := d.WeightBits
	if d.WeightPolarity == 2 {
		magBits--
		if magBits < 1 {
			magBits = 1
		}
	}
	maxCode := (1 << uint(magBits)) - 1
	read := func(blk *Block, xbar, r, physCol int) (int, error) {
		code := 0
		for sl := 0; sl < slices; sl++ {
			a := blk.Cells[xbar][r][physCol+sl]
			cellCode := scaleLevel(a.Level, d.Dev.Levels()-1, sliceMax(magBits, slices, cellBits, sl))
			code = code<<uint(cellBits) | cellCode
		}
		return code, nil
	}
	for i := range img.Blocks {
		blk := &img.Blocks[i]
		r0 := blk.RowBlock * s
		c0 := blk.ColBlock * logicalCols
		for r := 0; r < blk.Rows; r++ {
			for c := 0; c < blk.LogicalCols; c++ {
				var pos, neg int
				var err error
				switch {
				case d.WeightPolarity == 1:
					pos, err = read(blk, 0, r, c*slices)
				case d.TwoCrossbarSigned:
					pos, err = read(blk, 0, r, c*slices)
					if err == nil {
						neg, err = read(blk, 1, r, c*slices)
					}
				default:
					pos, err = read(blk, 0, r, c*2*slices)
					if err == nil {
						neg, err = read(blk, 0, r, c*2*slices+slices)
					}
				}
				if err != nil {
					return nil, err
				}
				out[r0+r][c0+c] = (float64(pos) - float64(neg)) / float64(maxCode) * img.Scale
			}
		}
	}
	return out, nil
}

// CellCount returns the number of programmed cells in the image.
func (img *Image) CellCount() int {
	total := 0
	for i := range img.Blocks {
		blk := &img.Blocks[i]
		for _, xbar := range blk.Cells {
			for _, row := range xbar {
				total += len(row)
			}
		}
	}
	return total
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
