package linalg

// Operation-cost accounting for the numerical kernels. An OpCount is an
// allocation-free accumulator of what a solve actually did — floating-point
// operations, kernel invocations, bytes streamed through memory,
// factorizations — so callers can attribute solve cost to phases without
// timers (the clock-free invariant of this package) and bit-identically
// across runs (the replay contract: counting only observes, it never
// touches a float in the computation).
//
// Every Count* method is safe on a nil receiver and does nothing there, so
// kernels thread a possibly-nil *OpCount through unconditionally; the
// disabled path costs one pointer test per kernel call.
//
// The accounting contract, which the analytic tests assert against:
//
//   - CountSpMV(nnz, n): one crossbar-operator matrix-vector product over
//     nnz structural nonzeros (CrossbarOp.NNZ). 2·nnz flops (multiply-add
//     per entry); 16·nnz bytes (value, gathered x element) plus 8·n bytes
//     (y store). The stencil reads no column index or row pointer.
//   - CountDot(n): one inner product. 2·n flops, 16·n bytes.
//   - CountNorm(n): one Euclidean norm — a self inner product (counted in
//     Dots) plus the square root. 2·n+1 flops, 8·n bytes.
//   - CountAxpy(n): one y += α·x. 2·n flops, 24·n bytes.
//   - CountVecOp(n, flopsPer): one streaming elementwise pass over
//     length-n vectors at flopsPer flops per element, 24·n bytes (two
//     reads, one write) — the preconditioner apply and direction update.
//   - CountChainFactor(chains, n): the Cholesky factorizations of chains
//     tridiagonal chains of length n, each 4·n−3 flops (the head's square
//     root, then a division, a multiply-subtract pair and a square root per
//     element) and 32·n bytes.
//   - CountChainSolve(chains, n): the forward+back substitution pairs of
//     chains tridiagonal chains of length n, each 6·n−4 flops and 64·n
//     bytes.
//   - CountPrecondApply(): one whole-preconditioner application (the
//     per-kind arithmetic is charged by the kernels it invokes; this only
//     bumps the invocation counter).
//
// The derived diagonal: CrossbarOp stores no diagonal, and every reader
// derives an entry as (wire + G[k]) + shift, two adds. The model charges
// each entry as the stored value it replaces and does not count the adds:
// an SpMV charges it among its nnz entries, the stamp (in package
// circuit) charges the two diagonal writes per cell a stored layout made,
// and a chain factorization or Jacobi setup charges its diagonal read.
// BlockJacobi.Refresh derives the diagonal into its reciprocal-pivot
// storage and factors it there; that pass is charged as the factor's
// diagonal read. So every count equals the stored-diagonal layout's and
// stays comparable across baselines; the derivation's cost shows in wall
// time only.
type OpCount struct {
	// Flops is the floating-point operation count (adds, multiplies,
	// divides, and square roots each count one; see the package cost model
	// for transcendental device evaluations, which callers count
	// explicitly).
	Flops int64 `json:"flops"`
	// SpMVs counts sparse matrix-vector products.
	SpMVs int64 `json:"spmvs,omitempty"`
	// Dots counts inner products (norms included: a norm is a self-dot).
	Dots int64 `json:"dots,omitempty"`
	// Axpys counts y += α·x vector updates.
	Axpys int64 `json:"axpys,omitempty"`
	// Bytes is the modeled memory traffic of the counted kernels.
	Bytes int64 `json:"bytes,omitempty"`
	// BandFactorizations counts tridiagonal (bandwidth-1) Cholesky
	// factorizations: one per preconditioner chain per refresh.
	BandFactorizations int64 `json:"band_factorizations,omitempty"`
	// PrecondApplies counts whole-preconditioner applications (one per
	// preconditioned CG iteration plus the setup apply).
	PrecondApplies int64 `json:"precond_applies,omitempty"`
}

// Add folds another accumulator into o; nil-safe on both sides.
func (o *OpCount) Add(other *OpCount) {
	if o == nil || other == nil {
		return
	}
	o.Flops += other.Flops
	o.SpMVs += other.SpMVs
	o.Dots += other.Dots
	o.Axpys += other.Axpys
	o.Bytes += other.Bytes
	o.BandFactorizations += other.BandFactorizations
	o.PrecondApplies += other.PrecondApplies
}

// CountSpMV records one matrix-vector product with nnz structural
// nonzeros over an n-vector.
func (o *OpCount) CountSpMV(nnz, n int) {
	if o == nil {
		return
	}
	o.SpMVs++
	o.Flops += 2 * int64(nnz)
	o.Bytes += 16*int64(nnz) + 8*int64(n)
}

// CountDot records one length-n inner product.
func (o *OpCount) CountDot(n int) {
	if o == nil {
		return
	}
	o.Dots++
	o.Flops += 2 * int64(n)
	o.Bytes += 16 * int64(n)
}

// CountNorm records one length-n Euclidean norm (a self-dot plus a square
// root).
func (o *OpCount) CountNorm(n int) {
	if o == nil {
		return
	}
	o.Dots++
	o.Flops += 2*int64(n) + 1
	o.Bytes += 8 * int64(n)
}

// CountAxpy records one length-n y += α·x update.
func (o *OpCount) CountAxpy(n int) {
	if o == nil {
		return
	}
	o.Axpys++
	o.Flops += 2 * int64(n)
	o.Bytes += 24 * int64(n)
}

// CountVecOp records one streaming elementwise pass over length-n vectors
// at flopsPer flops per element (two reads and one write per element).
func (o *OpCount) CountVecOp(n int, flopsPer int64) {
	if o == nil {
		return
	}
	o.Flops += flopsPer * int64(n)
	o.Bytes += 24 * int64(n)
}

// CountFlops records raw flops with no associated memory traffic — scalar
// recurrences like α = rz/p·Ap.
func (o *OpCount) CountFlops(n int64) {
	if o == nil {
		return
	}
	o.Flops += n
}

// CountBytes records raw memory traffic with no arithmetic — copies,
// diagonal reads, operator stamping.
func (o *OpCount) CountBytes(n int64) {
	if o == nil {
		return
	}
	o.Bytes += n
}

// CountChainFactor records the Cholesky factorizations of chains
// tridiagonal chains of length n: per chain, 4·n−3 flops (the first
// pivot's square root, then l = a/d′, a − l·l and the square root for each
// later element; the cached reciprocal is not counted).
func (o *OpCount) CountChainFactor(chains, n int) {
	if o == nil {
		return
	}
	c, nn := int64(chains), int64(n)
	o.BandFactorizations += c
	o.Flops += c * (4*nn - 3)
	o.Bytes += c * 32 * nn
}

// CountChainSolve records the forward+back substitution pairs of chains
// tridiagonal chains of length n: per chain, 6·n−4 flops (a multiply per
// chain end and a multiply-subtract-multiply per other element, each way).
func (o *OpCount) CountChainSolve(chains, n int) {
	if o == nil {
		return
	}
	c, nn := int64(chains), int64(n)
	o.Flops += c * (6*nn - 4)
	o.Bytes += c * 64 * nn
}

// CountPrecondApply records one whole-preconditioner application; the
// arithmetic cost is charged by the kernels the apply invokes.
func (o *OpCount) CountPrecondApply() {
	if o == nil {
		return
	}
	o.PrecondApplies++
}
