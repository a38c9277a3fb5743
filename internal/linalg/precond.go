package linalg

import "fmt"

// Preconditioner supplies z ≈ A⁻¹·r to SolveCG. Implementations must be
// symmetric positive definite (a CG requirement), deterministic, and apply
// with r and z non-aliased. An implementation is confined to one goroutine
// at a time, like every other solver structure in this package.
type Preconditioner interface {
	// Apply computes z = M⁻¹·r. A non-nil ops accumulates the apply's
	// operation counts; accounting is observational only.
	Apply(r, z []float64, ops *OpCount)
}

// jacobiPrecond is the classic diagonal preconditioner — the SolveCG
// fallback when no structure-aware preconditioner is supplied.
type jacobiPrecond struct {
	inv []float64
}

// newJacobiPrecond inverts the matrix diagonal. The diagonal scan and
// inversion are charged to ops exactly as the historical in-line Jacobi
// path did, keeping the documented CG accounting contract intact.
func newJacobiPrecond(a *CSR, ops *OpCount) (*jacobiPrecond, error) {
	diag := a.Diagonal()
	ops.CountBytes(16 * int64(len(a.Vals))) // diagonal scan over Vals + ColIdx
	inv := make([]float64, a.N)
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("linalg: zero diagonal at %d, Jacobi preconditioner undefined", i)
		}
		inv[i] = 1 / d
	}
	ops.CountVecOp(a.N, 1) // diagonal inversion
	return &jacobiPrecond{inv: inv}, nil
}

func (p *jacobiPrecond) Apply(r, z []float64, ops *OpCount) {
	for i := range z {
		z[i] = p.inv[i] * r[i]
	}
	ops.CountVecOp(len(z), 1)
	ops.CountPrecondApply()
}

// Block describes one strided index set of a matrix: the global indices
// Start + k·Stride for k ∈ [0, Len). The crossbar MNA ordering makes every
// row wire chain a contiguous block (stride 1) and every column wire chain
// a strided one (stride N), both tridiagonal in their local index.
type Block struct {
	Start, Stride, Len int
}

// BlockJacobi is a structure-aware block-diagonal preconditioner: the
// matrix restricted to each block (within bandwidth bw of the block-local
// diagonal) is factored by banded Cholesky, and Apply solves each block
// independently. For crossbar conductance matrices the blocks are the
// row/column wire chains, which carry the strong (wire) coupling; the
// weak cell coupling between chains is all that CG has left to iterate on.
type BlockJacobi struct {
	n      int
	bw     int
	blocks []Block
	// band is the concatenated band storage of every block; block b owns
	// band[off[b] : off[b]+Len·(bw+1)] and is refactored in place.
	band []float64
	off  []int
	// valIdx maps each band slot to its position in the source CSR's Vals
	// (−1 where the sparsity pattern has no entry), so Refresh is a gather
	// with no search.
	valIdx []int32
	chols  []*BandChol
	// scratch is the gather buffer for strided blocks.
	scratch []float64
}

// NewBlockJacobi builds the block preconditioner for a: the blocks must
// partition [0, a.N) exactly (every index in exactly one block). The
// sparsity-pattern positions are located once here; the value gather and
// factorisation happen in Refresh, which New calls before returning.
func NewBlockJacobi(a *CSR, blocks []Block, bw int, ops *OpCount) (*BlockJacobi, error) {
	if bw < 0 {
		return nil, fmt.Errorf("linalg: negative block bandwidth %d", bw)
	}
	covered := make([]bool, a.N)
	maxLen, total := 0, 0
	for bi, b := range blocks {
		if b.Len <= 0 || b.Stride <= 0 || b.Start < 0 {
			return nil, fmt.Errorf("linalg: invalid block %d: %+v", bi, b)
		}
		last := b.Start + (b.Len-1)*b.Stride
		if last >= a.N {
			return nil, fmt.Errorf("linalg: block %d reaches index %d outside %d", bi, last, a.N)
		}
		for k := 0; k < b.Len; k++ {
			i := b.Start + k*b.Stride
			if covered[i] {
				return nil, fmt.Errorf("linalg: blocks overlap at index %d", i)
			}
			covered[i] = true
		}
		if b.Len > maxLen {
			maxLen = b.Len
		}
		total += b.Len
	}
	if total != a.N {
		return nil, fmt.Errorf("linalg: blocks cover %d of %d indices", total, a.N)
	}
	w1 := bw + 1
	p := &BlockJacobi{
		n: a.N, bw: bw, blocks: blocks,
		band:    make([]float64, total*w1),
		off:     make([]int, len(blocks)),
		valIdx:  make([]int32, total*w1),
		chols:   make([]*BandChol, len(blocks)),
		scratch: make([]float64, maxLen),
	}
	pos := 0
	for bi, b := range blocks {
		p.off[bi] = pos
		for k := 0; k < b.Len; k++ {
			i := b.Start + k*b.Stride
			for d := 0; d <= bw; d++ {
				slot := pos + k*w1 + bw - d
				if d > k {
					p.valIdx[slot] = -1
					continue
				}
				j := b.Start + (k-d)*b.Stride
				p.valIdx[slot] = int32(a.findPos(i, j))
			}
		}
		pos += b.Len * w1
	}
	if err := p.Refresh(a, ops); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh re-gathers the block entries from the (re-stamped) matrix and
// refactors every block in place. The matrix must keep the sparsity
// pattern it had at NewBlockJacobi time.
func (p *BlockJacobi) Refresh(a *CSR, ops *OpCount) error {
	if a.N != p.n {
		return fmt.Errorf("linalg: preconditioner built for %d unknowns, matrix has %d", p.n, a.N)
	}
	for s, vi := range p.valIdx {
		if vi < 0 {
			p.band[s] = 0
			continue
		}
		p.band[s] = a.Vals[vi]
	}
	ops.CountBytes(20 * int64(len(p.band))) // valIdx + source + band write
	w1 := p.bw + 1
	for bi, b := range p.blocks {
		seg := p.band[p.off[bi] : p.off[bi]+b.Len*w1]
		f, err := p.chols[bi].Refactor(b.Len, p.bw, seg, ops)
		if err != nil {
			return fmt.Errorf("linalg: block %d (start %d stride %d len %d): %w",
				bi, b.Start, b.Stride, b.Len, err)
		}
		p.chols[bi] = f
	}
	return nil
}

// Apply solves each block independently: z = blockdiag(A)⁻¹·r.
//
// Called once per CG iteration; the gather/scatter buffer is the
// preallocated p.scratch, so the whole apply is allocation-free.
//
//lint:hotpath
func (p *BlockJacobi) Apply(r, z []float64, ops *OpCount) {
	for bi, b := range p.blocks {
		buf := p.scratch[:b.Len]
		if b.Stride == 1 {
			copy(buf, r[b.Start:b.Start+b.Len])
			p.chols[bi].SolveInPlace(buf, ops)
			copy(z[b.Start:b.Start+b.Len], buf)
			continue
		}
		for k := 0; k < b.Len; k++ {
			buf[k] = r[b.Start+k*b.Stride]
		}
		p.chols[bi].SolveInPlace(buf, ops)
		for k := 0; k < b.Len; k++ {
			z[b.Start+k*b.Stride] = buf[k]
		}
	}
	ops.CountBytes(32 * int64(p.n)) // gather + scatter traffic
	ops.CountPrecondApply()
}

// findPos returns the position of element (i,j) in the CSR value array, or
// −1 when the pattern has no such entry. Column indices are sorted within
// a row, so the scan is a short ordered walk.
func (m *CSR) findPos(i, j int) int {
	for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
		switch {
		case m.ColIdx[k] == j:
			return k
		case m.ColIdx[k] > j:
			return -1
		}
	}
	return -1
}
