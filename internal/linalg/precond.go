package linalg

import (
	"fmt"
	"math"
)

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

// ErrNotSPD is returned when a Cholesky factorisation meets a pivot that is
// not strictly positive — the matrix is not (numerically) symmetric
// positive definite.
var ErrNotSPD = fmt.Errorf("linalg: matrix not symmetric positive definite")

// Family is Chains tridiagonal chains of length Len interleaved over the
// contiguous index range [Start, Start+Chains·Len): element k of chain c is
// global index Start + k·Chains + c, so a chain's neighbours sit Chains
// apart. The crossbar MNA ordering makes every row wire chain a family of
// one (Chains = 1) and all N column wire chains one family (Chains = N,
// Len = M).
type Family struct {
	Start, Chains, Len int
}

// BlockJacobi is a structure-aware block-diagonal preconditioner: the
// matrix restricted to each tridiagonal chain is factored by Cholesky, and
// Apply solves every chain independently. For crossbar conductance
// matrices the chains are the row/column wires, which carry the strong
// (wire) coupling; the weak cell coupling between chains is all that CG
// has left to iterate on.
//
// The factor is stored per global index, so a family's chains interleave
// in it exactly as they do in the vectors and every kernel walks memory
// at unit stride.
type BlockJacobi struct {
	n        int
	families []Family
	// diag[i] and sub[i] are the chain entries of unknown i: its diagonal
	// and its coupling to the previous element of the same chain (zero at
	// a chain head). Refresh gathers them from the matrix and factors them
	// in place into L's diagonal and subdiagonal.
	diag, sub []float64
	// rdiag caches 1/L[i,i]. Substitution is a loop-carried dependency
	// chain, so replacing its per-element division with a multiply by the
	// cached reciprocal is the difference between ~30 and ~8 cycles per
	// element; the one extra rounding it introduces is far inside CG's
	// convergence tolerance.
	rdiag []float64
	// diagIdx and subIdx map each entry to its position in the source
	// CSR's Vals (−1 where the sparsity pattern has no entry), so Refresh
	// is a gather with no search.
	diagIdx, subIdx []int32
}

// NewBlockJacobi builds the chain preconditioner for a: the families must
// partition [0, a.N) exactly (every index in exactly one family). The
// sparsity-pattern positions are located once here; the value gather and
// factorisation happen in Refresh, which New calls before returning.
func NewBlockJacobi(a *CSR, families []Family, ops *OpCount) (*BlockJacobi, error) {
	covered := make([]bool, a.N)
	total := 0
	for fi, f := range families {
		if f.Len <= 0 || f.Chains <= 0 || f.Start < 0 {
			return nil, fmt.Errorf("linalg: invalid chain family %d: %+v", fi, f)
		}
		end := f.Start + f.Chains*f.Len
		if end > a.N {
			return nil, fmt.Errorf("linalg: chain family %d reaches index %d outside %d", fi, end-1, a.N)
		}
		for i := f.Start; i < end; i++ {
			if covered[i] {
				return nil, fmt.Errorf("linalg: chain families overlap at index %d", i)
			}
			covered[i] = true
		}
		total += f.Chains * f.Len
	}
	if total != a.N {
		return nil, fmt.Errorf("linalg: chain families cover %d of %d indices", total, a.N)
	}
	p := &BlockJacobi{
		n: a.N, families: families,
		diag:    make([]float64, a.N),
		sub:     make([]float64, a.N),
		rdiag:   make([]float64, a.N),
		diagIdx: make([]int32, a.N),
		subIdx:  make([]int32, a.N),
	}
	for _, f := range families {
		for i := f.Start; i < f.Start+f.Chains*f.Len; i++ {
			p.diagIdx[i] = int32(a.findPos(i, i))
			p.subIdx[i] = -1
			if i >= f.Start+f.Chains {
				p.subIdx[i] = int32(a.findPos(i, i-f.Chains))
			}
		}
	}
	if err := p.Refresh(a, ops); err != nil {
		return nil, err
	}
	return p, nil
}

// Refresh re-gathers the chain entries from the (re-stamped) matrix and
// refactors every chain in place. The matrix must keep the sparsity
// pattern it had at NewBlockJacobi time.
func (p *BlockJacobi) Refresh(a *CSR, ops *OpCount) error {
	if a.N != p.n {
		return fmt.Errorf("linalg: preconditioner built for %d unknowns, matrix has %d", p.n, a.N)
	}
	gather(p.diag, p.diagIdx, a.Vals)
	gather(p.sub, p.subIdx, a.Vals)
	ops.CountBytes(40 * int64(p.n)) // index map + source + entry write, two entries per unknown
	for fi, f := range p.families {
		ops.CountChainFactor(f.Chains, f.Len)
		if i, pivot := p.factorFamily(f); i >= 0 {
			return fmt.Errorf("linalg: chain family %d (start %d, %d chains of %d): %w (pivot %g at chain %d element %d)",
				fi, f.Start, f.Chains, f.Len, ErrNotSPD, pivot, i%f.Chains, i/f.Chains)
		}
	}
	return nil
}

// gather fills dst[i] = vals[idx[i]], or 0 where idx[i] < 0.
//
//lint:hotpath
func gather(dst []float64, idx []int32, vals []float64) {
	for i, vi := range idx {
		if vi < 0 {
			dst[i] = 0
			continue
		}
		dst[i] = vals[vi]
	}
}

// factorFamily overwrites one family's entries with the Cholesky factor of
// each of its chains and fills their reciprocal pivots. Each element costs
// l = a/d′, d = √(a − l·l), 1/d against its predecessor's pivot d′, the
// order of a scalar tridiagonal Cholesky; the loop runs over the
// interleaved range once, so every chain advances one element per Chains
// indices. A pivot that is not strictly positive stops the factorization
// and is returned with its offset in the family; otherwise the offset is
// −1. A failed factor is left partially overwritten — callers discard it.
//
//lint:hotpath
func (p *BlockJacobi) factorFamily(f Family) (int, float64) {
	s, end := f.Chains, f.Start+f.Chains*f.Len
	d, l, rd := p.diag[f.Start:end], p.sub[f.Start:end], p.rdiag[f.Start:end]
	for i := range d {
		a := d[i]
		if i >= s {
			li := l[i] / d[i-s]
			l[i] = li
			a -= li * li
		}
		if !(a > 0) {
			return i, a
		}
		di := math.Sqrt(a)
		d[i] = di
		rd[i] = 1 / di
	}
	return -1, 0
}

// Apply solves every chain independently: z = blockdiag(A)⁻¹·r.
//
// Substitution along one chain is a loop-carried dependency chain, so the
// kernels keep several chains in flight: an interleaved family advances
// all its chains together, and runs of four single-chain families of one
// length (the crossbar's row wires) are swept as a group. Called once per
// CG iteration; it allocates nothing.
//
//lint:hotpath
func (p *BlockJacobi) Apply(r, z []float64, ops *OpCount) {
	for fams := p.families; len(fams) > 0; {
		if fourSingleChains(fams) {
			p.solveFour(fams[:4], r, z)
			ops.CountChainSolve(4, fams[0].Len)
			fams = fams[4:]
			continue
		}
		p.solveFamily(fams[0], r, z)
		ops.CountChainSolve(fams[0].Chains, fams[0].Len)
		fams = fams[1:]
	}
	// The r→z copy pass, which the cost model charges 32 bytes per unknown.
	ops.CountBytes(32 * int64(p.n))
	ops.CountPrecondApply()
}

// fourSingleChains reports whether fams starts with four single-chain
// families of one length.
func fourSingleChains(fams []Family) bool {
	if len(fams) < 4 {
		return false
	}
	for _, f := range fams[:4] {
		if f.Chains != 1 || f.Len != fams[0].Len {
			return false
		}
	}
	return true
}

// solveFamily copies one family's r into z and solves it in place. The
// forward and back substitutions are each one pass over the family's
// contiguous range: element i depends only on element i∓Chains of the same
// chain, so the chains advance together at unit stride and neighbouring
// iterations are independent whenever Chains > 1.
//
//lint:hotpath
func (p *BlockJacobi) solveFamily(f Family, r, z []float64) {
	s, end := f.Chains, f.Start+f.Chains*f.Len
	zf := z[f.Start:end]
	copy(zf, r[f.Start:end])
	l, rd := p.sub[f.Start:end], p.rdiag[f.Start:end]
	rd = rd[:len(zf)]
	// L·y = r: chain heads, then every later element from its predecessor.
	head, rh := zf[:s], rd[:s]
	for i := range head {
		head[i] *= rh[i]
	}
	cur, prev, lc, rc := zf[s:], zf[:len(zf)-s], l[s:len(zf)], rd[s:]
	prev, lc, rc = prev[:len(cur)], lc[:len(cur)], rc[:len(cur)]
	for i := range cur {
		cur[i] = (cur[i] - lc[i]*prev[i]) * rc[i]
	}
	// Lᵀ·x = y: chain tails, then every earlier element from its successor.
	tail, rt := zf[len(zf)-s:], rd[len(zf)-s:]
	for i := range tail {
		tail[i] *= rt[i]
	}
	cur, next, ln, rc := zf[:len(zf)-s], zf[s:], l[s:len(zf)], rd[:len(zf)-s]
	next, ln, rc = next[:len(cur)], ln[:len(cur)], rc[:len(cur)]
	for i := len(cur) - 1; i >= 0; i-- {
		cur[i] = (cur[i] - ln[i]*next[i]) * rc[i]
	}
}

// solveFour solves four single-chain families of one length together,
// each element by solveFamily's arithmetic: a lone chain's substitution is
// latency-bound, and four independent chains fill the pipeline.
//
//lint:hotpath
func (p *BlockJacobi) solveFour(f []Family, r, z []float64) {
	n := f[0].Len
	a, b, c, d := f[0].Start, f[1].Start, f[2].Start, f[3].Start
	z0, z1, z2, z3 := z[a:a+n], z[b:b+n], z[c:c+n], z[d:d+n]
	copy(z0, r[a:a+n])
	copy(z1, r[b:b+n])
	copy(z2, r[c:c+n])
	copy(z3, r[d:d+n])
	l0, l1, l2, l3 := p.sub[a:a+n], p.sub[b:b+n], p.sub[c:c+n], p.sub[d:d+n]
	r0, r1, r2, r3 := p.rdiag[a:a+n], p.rdiag[b:b+n], p.rdiag[c:c+n], p.rdiag[d:d+n]
	z1, z2, z3 = z1[:len(z0)], z2[:len(z0)], z3[:len(z0)]
	l0, l1, l2, l3 = l0[:len(z0)], l1[:len(z0)], l2[:len(z0)], l3[:len(z0)]
	r0, r1, r2, r3 = r0[:len(z0)], r1[:len(z0)], r2[:len(z0)], r3[:len(z0)]
	z0[0] *= r0[0]
	z1[0] *= r1[0]
	z2[0] *= r2[0]
	z3[0] *= r3[0]
	for k := 1; k < len(z0); k++ {
		z0[k] = (z0[k] - l0[k]*z0[k-1]) * r0[k]
		z1[k] = (z1[k] - l1[k]*z1[k-1]) * r1[k]
		z2[k] = (z2[k] - l2[k]*z2[k-1]) * r2[k]
		z3[k] = (z3[k] - l3[k]*z3[k-1]) * r3[k]
	}
	t := len(z0) - 1
	z0[t] *= r0[t]
	z1[t] *= r1[t]
	z2[t] *= r2[t]
	z3[t] *= r3[t]
	for k := t - 1; k >= 0; k-- {
		z0[k] = (z0[k] - l0[k+1]*z0[k+1]) * r0[k]
		z1[k] = (z1[k] - l1[k+1]*z1[k+1]) * r1[k]
		z2[k] = (z2[k] - l2[k+1]*z2[k+1]) * r2[k]
		z3[k] = (z3[k] - l3[k+1]*z3[k+1]) * r3[k]
	}
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
