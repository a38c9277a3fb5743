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

// newJacobiPrecond inverts the matrix diagonal, written into the inverse's
// own storage, charging the diagonal read and the inversion to ops.
func newJacobiPrecond(a *CrossbarOp, ops *OpCount) (*jacobiPrecond, error) {
	ops.CountBytes(8 * int64(a.Len())) // diagonal read
	inv := make([]float64, a.Len())
	a.diagonal(inv)
	for i, d := range inv {
		if d == 0 {
			return nil, fmt.Errorf("linalg: zero diagonal at %d, Jacobi preconditioner undefined", i)
		}
		inv[i] = 1 / d
	}
	ops.CountVecOp(a.Len(), 1) // diagonal inversion
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
// apart. CrossbarOp.Families lists a crossbar's wire chains this way.
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
// at unit stride. It stores what Apply reads, L's subdiagonal and its
// reciprocal pivots, two floats per unknown. Refresh writes the operator's
// diagonal into the reciprocal pivots' storage and factors it there; the
// pivots themselves are kept only as long as the next element of their
// chain needs them.
type BlockJacobi struct {
	m, n     int // the crossbar shape
	families []Family
	// sub[i] is unknown i's coupling to the previous element of its chain
	// (zero at a chain head). Refresh writes it from the operator and
	// factors it in place into L's subdiagonal.
	sub []float64
	// rdiag caches 1/L[i,i], factored in place from the operator's
	// diagonal. Substitution is a loop-carried dependency
	// chain, so replacing its per-element division with a multiply by the
	// cached reciprocal is the difference between ~30 and ~8 cycles per
	// element; the one extra rounding it introduces is far inside CG's
	// convergence tolerance.
	rdiag []float64
	// piv is the factor's scratch: the latest pivot L[i,i] of each chain
	// of the family being factored, as many floats as its widest family
	// has chains.
	piv []float64
}

// NewBlockJacobi builds the preconditioner over a's wire chains
// (CrossbarOp.Families) and factors it with Refresh.
func NewBlockJacobi(a *CrossbarOp, ops *OpCount) (*BlockJacobi, error) {
	p := newChainPrecond(a.Families(), a.Len())
	p.m, p.n = a.M, a.N
	if err := p.Refresh(a, ops); err != nil {
		return nil, err
	}
	return p, nil
}

// newChainPrecond allocates an unfactored preconditioner over families
// that partition [0, n).
func newChainPrecond(fams []Family, n int) *BlockJacobi {
	chains := 0
	for _, f := range fams {
		chains = max(chains, f.Chains)
	}
	return &BlockJacobi{families: fams, sub: make([]float64, n), rdiag: make([]float64, n), piv: make([]float64, chains)}
}

// Refresh reads the chain entries of the (re-stamped) operator, which must
// have the shape the preconditioner was built for — the diagonal, written
// into rdiag, and the constant −GW wire coupling — and refactors every
// chain in place.
func (p *BlockJacobi) Refresh(a *CrossbarOp, ops *OpCount) error {
	if a.M != p.m || a.N != p.n {
		return fmt.Errorf("linalg: preconditioner built for a %dx%d crossbar, operator is %dx%d", p.m, p.n, a.M, a.N)
	}
	for i := range p.sub {
		p.sub[i] = -a.GW
	}
	for _, f := range p.families {
		clear(p.sub[f.Start : f.Start+f.Chains]) // chain heads
	}
	ops.CountBytes(8 * int64(len(p.sub))) // coupling write; the factor reads the diagonal
	a.diagonal(p.rdiag)
	return p.factor(p.rdiag, ops)
}

// factor factors every family's chains, with diagonal diag, in place; diag
// may be rdiag itself.
func (p *BlockJacobi) factor(diag []float64, ops *OpCount) error {
	for fi, f := range p.families {
		ops.CountChainFactor(f.Chains, f.Len)
		if i, pivot := p.factorFamily(f, diag); i >= 0 {
			return fmt.Errorf("linalg: chain family %d (start %d, %d chains of %d): %w (pivot %g at chain %d element %d)",
				fi, f.Start, f.Chains, f.Len, ErrNotSPD, pivot, i%f.Chains, i/f.Chains)
		}
	}
	return nil
}

// factorFamily overwrites one family's subdiagonal with the Cholesky
// factor of each of its chains, whose diagonal is diag's, and fills their
// reciprocal pivots; it reads diag[i] before it writes rdiag[i], so diag
// may be rdiag. Each element costs l = a/d′, d = √(a − l·l), 1/d
// against its predecessor's pivot d′, the order of a scalar tridiagonal
// Cholesky; the loop runs over the interleaved range once, so every chain
// advances one element per Chains indices, and d′ is the chain's slot in
// the pivot scratch. A pivot that is not strictly positive stops the
// factorization and is returned with its offset in the family; otherwise
// the offset is −1. A failed factor is left partially overwritten —
// callers discard it.
//
//lint:hotpath
func (p *BlockJacobi) factorFamily(f Family, diag []float64) (int, float64) {
	s, end := f.Chains, f.Start+f.Chains*f.Len
	d, l, rd := diag[f.Start:end], p.sub[f.Start:end], p.rdiag[f.Start:end]
	l, rd = l[:len(d)], rd[:len(d)]
	piv := p.piv[:s]
	c := 0 // the chain of element i
	for i := range d {
		a := d[i]
		if i >= s {
			li := l[i] / piv[c]
			l[i] = li
			a -= li * li
		}
		if !(a > 0) {
			return i, a
		}
		di := math.Sqrt(a)
		piv[c] = di
		rd[i] = 1 / di
		c++
		if c == s {
			c = 0
		}
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
	ops.CountBytes(32 * int64(len(p.sub)))
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
