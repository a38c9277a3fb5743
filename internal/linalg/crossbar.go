package linalg

import "fmt"

// CrossbarOp is the modified-nodal-analysis conductance matrix of an M×N
// memristor crossbar, held as its stencil instead of as stored entries.
// The matrix is fixed by the wire-segment conductance GW, the M·N cell
// conductances G and the node diagonal Diag. Beside them the operator
// stores only the N + M wire-only diagonal sums that SetCell adds a cell
// to: 2·M·N + M·N + N + M floats in all.
//
// Node numbering: row node (m, n) is m·N + n and column node (m, n) is
// M·N + m·N + n, so cell k = m·N + n joins row node k to column node
// M·N + k.
//   - A row node couples to its left and right row neighbours by −GW and
//     to its cell's column node by −G[k]. Its row wire is driven from its
//     source through one more wire segment at n = 0.
//   - A column node couples to its cell's row node by −G[k] and to its up
//     and down column neighbours by −GW. Its column wire ends in the sense
//     conductance at m = M−1.
//
// Bit identity with a sorted-column sparse matrix: every kernel sums a
// row's terms from zero in ascending column order — a row node as left,
// self, right, column node; a column node as row node, up, self, down —
// and StampWires and SetCell sum each diagonal entry in the order its
// wire, source or sense and cell terms were historically stamped. A
// caller adding a further diagonal term (the transient's C/dt) adds it to
// Diag in place, last.
type CrossbarOp struct {
	M, N int
	// GW is the wire-segment conductance: every chain coupling is −GW.
	GW float64
	// G[k] is cell k's conductance.
	G []float64
	// Diag is the node diagonal, row nodes then column nodes.
	Diag []float64
	// wire is the diagonal without the cell terms, set by StampWires. It
	// depends on a node's position alone: wire[n] is the sum of every row
	// node in column n (the last column has no right segment), wire[N+m]
	// that of every column node in row m (the first row has no up segment,
	// the last ends in the sense conductance). SetCell adds a cell's
	// conductance to it.
	wire []float64
}

// NewCrossbarOp allocates the operator of an m×n crossbar with every
// conductance zero.
func NewCrossbarOp(m, n int) *CrossbarOp {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("linalg: invalid crossbar shape %dx%d", m, n))
	}
	return &CrossbarOp{M: m, N: n, G: make([]float64, m*n), Diag: make([]float64, 2*m*n), wire: make([]float64, n+m)}
}

// Len is the number of unknowns, 2·M·N.
func (a *CrossbarOp) Len() int { return len(a.Diag) }

// NNZ is the number of structurally nonzero entries: the diagonal, two
// cell couplings per cell, and two couplings per wire segment between
// neighbouring nodes. The cost model charges SpMVs per entry.
func (a *CrossbarOp) NNZ() int { return 8*a.M*a.N - 2*a.M - 2*a.N }

// StampWires sets the wire conductance gw and recomputes the wire-only
// diagonal sums with sense conductance gs. A row node sums its left segment
// (or its source) and then its right segment; a column node sums its up
// segment and then its down segment (or its sense conductance). Diag
// follows once every cell is set with SetCell.
func (a *CrossbarOp) StampWires(gw, gs float64) {
	a.GW = gw
	rows, cols := a.wire[:a.N], a.wire[a.N:]
	for i := range a.wire {
		a.wire[i] = gw + gw
	}
	rows[a.N-1] = gw // no right segment (with N = 1, the source alone)
	cols[0] = gw     // no up segment
	end := gw + gs
	if a.M == 1 {
		end = gs
	}
	cols[a.M-1] = end
}

// SetCell sets the conductance of the cell in crossbar row m, column n,
// and the diagonal of its two nodes to their wire-only sums plus g.
func (a *CrossbarOp) SetCell(m, n int, g float64) {
	k := m*a.N + n
	a.G[k] = g
	a.Diag[k] = a.wire[n] + g
	a.Diag[len(a.G)+k] = a.wire[a.N+m] + g
}

// Families returns the wire chains as preconditioner chain families: each
// of the M contiguous row wires is a family of one, and the N column
// wires, interleaved at stride N, are one family of N chains of length M.
func (a *CrossbarOp) Families() []Family {
	fams := make([]Family, 0, a.M+1)
	for m := 0; m < a.M; m++ {
		fams = append(fams, Family{Start: m * a.N, Chains: 1, Len: a.N})
	}
	return append(fams, Family{Start: a.M * a.N, Chains: a.N, Len: a.M})
}

// MulVec computes y = A·x, reusing y if it has the right length.
func (a *CrossbarOp) MulVec(x, y []float64) []float64 {
	if len(x) != a.Len() {
		panic(fmt.Sprintf("linalg: CrossbarOp MulVec got %d, want %d", len(x), a.Len()))
	}
	if len(y) != a.Len() {
		y = make([]float64, a.Len())
	}
	for blk := 0; blk < 2*a.M; blk++ {
		a.block(blk, x, y)
	}
	return y
}

// residual sets r = b − A·x and returns r·r. Every float is the one
// MulVec, the subtraction pass and Norm2's sum of squares produce, in
// their index order; each block of N nodes is finished while it is in
// cache, so the vectors are read once.
//
//lint:hotpath
func (a *CrossbarOp) residual(b, x, r []float64) float64 {
	rr := 0.0
	for blk := 0; blk < 2*a.M; blk++ {
		a.block(blk, x, r)
		lo := blk * a.N
		rb, bb := r[lo:lo+a.N], b[lo:lo+a.N]
		for i := range rb {
			ri := bb[i] - rb[i]
			rb[i] = ri
			rr += ri * ri
		}
	}
	return rr
}

// mulVecDot sets y = A·x and returns x·y, bit-identical to MulVec followed
// by Dot(x, y), in one pass over the vectors.
//
//lint:hotpath
func (a *CrossbarOp) mulVecDot(x, y []float64) float64 {
	dot := 0.0
	for blk := 0; blk < 2*a.M; blk++ {
		a.block(blk, x, y)
		lo := blk * a.N
		yb, xb := y[lo:lo+a.N], x[lo:lo+a.N]
		for i := range yb {
			dot += xb[i] * yb[i]
		}
	}
	return dot
}

// block sets the N entries of y = A·x for node block blk: blocks 0…M−1
// are the row nodes of crossbar row blk, blocks M…2M−1 the column nodes of
// crossbar row blk−M.
//
//lint:hotpath
func (a *CrossbarOp) block(blk int, x, y []float64) {
	if blk < a.M {
		a.rowNodes(blk, x, y)
		return
	}
	a.colNodes(blk-a.M, x, y)
}

// rowNodes sums each row node of crossbar row m as left, self, right,
// column node.
//
//lint:hotpath
func (a *CrossbarOp) rowNodes(m int, x, y []float64) {
	n, mn := a.N, a.M*a.N
	lo := m * n
	xr, xc := x[lo:lo+n], x[mn+lo:mn+lo+n]
	d, g, yr := a.Diag[lo:lo+n], a.G[lo:lo+n], y[lo:lo+n]
	ngw := -a.GW
	if n == 1 {
		s := 0.0
		s += d[0] * xr[0]
		s += -g[0] * xc[0]
		yr[0] = s
		return
	}
	s := 0.0
	s += d[0] * xr[0]
	s += ngw * xr[1]
	s += -g[0] * xc[0]
	yr[0] = s
	for k := 1; k < n-1; k++ {
		s := 0.0
		s += ngw * xr[k-1]
		s += d[k] * xr[k]
		s += ngw * xr[k+1]
		s += -g[k] * xc[k]
		yr[k] = s
	}
	t := n - 1
	s = 0.0
	s += ngw * xr[t-1]
	s += d[t] * xr[t]
	s += -g[t] * xc[t]
	yr[t] = s
}

// colNodes sums each column node of crossbar row m as row node, up, self,
// down; the first row has no up neighbour and the last no down one.
//
//lint:hotpath
func (a *CrossbarOp) colNodes(m int, x, y []float64) {
	n, mn := a.N, a.M*a.N
	lo := mn + m*n
	xr, xc := x[lo-mn:lo-mn+n], x[lo:lo+n]
	d, g, yc := a.Diag[lo:lo+n], a.G[lo-mn:lo-mn+n], y[lo:lo+n]
	xr, d, g = xr[:len(xc)], d[:len(xc)], g[:len(xc)]
	yc = yc[:len(xc)]
	ngw := -a.GW
	switch up, down := m > 0, m < a.M-1; {
	case up && down:
		xu, xd := x[lo-n:lo], x[lo+n:lo+2*n]
		xu, xd = xu[:len(xc)], xd[:len(xc)]
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += ngw * xu[k]
			s += d[k] * xc[k]
			s += ngw * xd[k]
			yc[k] = s
		}
	case up:
		xu := x[lo-n : lo]
		xu = xu[:len(xc)]
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += ngw * xu[k]
			s += d[k] * xc[k]
			yc[k] = s
		}
	case down:
		xd := x[lo+n : lo+2*n]
		xd = xd[:len(xc)]
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += d[k] * xc[k]
			s += ngw * xd[k]
			yc[k] = s
		}
	default:
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += d[k] * xc[k]
			yc[k] = s
		}
	}
}
