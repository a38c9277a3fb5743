package linalg

import "fmt"

// CrossbarOp is the modified-nodal-analysis conductance matrix of an M×N
// memristor crossbar, held as its stencil instead of as stored entries.
// The matrix is fixed by the wire-segment conductance GW, the M·N cell
// conductances G, the N + M wire-only diagonal sums that StampWires sets,
// and a diagonal shift of one scalar for the row nodes and one for the
// column nodes: M·N + N + M + 2 floats in all, where a stored diagonal
// would add 2·M·N more. Every kernel derives a node's diagonal entry as it
// reads it.
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
// self, right, column node; a column node as row node, up, self, down.
// A diagonal entry is (wire + G[k]) + shift: its wire, source or sense
// terms summed in the order they were historically stamped, then the
// cell, then the shift (the transient's C/dt), the bits a stored diagonal
// stamped in that order holds. With the shift zero, (w + g) + 0 is w + g.
type CrossbarOp struct {
	M, N int
	// GW is the wire-segment conductance: every chain coupling is −GW.
	GW float64
	// G[k] is cell k's conductance.
	G []float64
	// wire is the diagonal without the cell terms, set by StampWires. It
	// depends on a node's position alone: wire[n] is the sum of every row
	// node in column n (the last column has no right segment), wire[N+m]
	// that of every column node in row m (the first row has no up segment,
	// the last ends in the sense conductance).
	wire []float64
	// rowShift and colShift are added last to every row node's and every
	// column node's diagonal entry (SetDiagShift); StampWires clears them.
	rowShift, colShift float64
}

// NewCrossbarOp allocates the operator of an m×n crossbar with every
// conductance zero.
func NewCrossbarOp(m, n int) *CrossbarOp {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("linalg: invalid crossbar shape %dx%d", m, n))
	}
	return &CrossbarOp{M: m, N: n, G: make([]float64, m*n), wire: make([]float64, n+m)}
}

// Len is the number of unknowns, 2·M·N.
func (a *CrossbarOp) Len() int { return 2 * len(a.G) }

// NNZ is the number of structurally nonzero entries: the diagonal, two
// cell couplings per cell, and two couplings per wire segment between
// neighbouring nodes. The cost model charges SpMVs per entry.
func (a *CrossbarOp) NNZ() int { return 8*a.M*a.N - 2*a.M - 2*a.N }

// StampWires sets the wire conductance gw, recomputes the wire-only
// diagonal sums with sense conductance gs and clears the diagonal shift. A
// row node sums its left segment (or its source) and then its right
// segment; a column node sums its up segment and then its down segment (or
// its sense conductance).
func (a *CrossbarOp) StampWires(gw, gs float64) {
	a.GW = gw
	a.rowShift, a.colShift = 0, 0
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
// which joins its two nodes and adds to both their diagonal entries.
func (a *CrossbarOp) SetCell(m, n int, g float64) {
	a.G[m*a.N+n] = g
}

// SetDiagShift sets the term added last to every diagonal entry: row to
// the row nodes', col to the column nodes'. It replaces any earlier shift;
// StampWires clears it.
func (a *CrossbarOp) SetDiagShift(row, col float64) {
	a.rowShift, a.colShift = row, col
}

// diagonal writes the operator's diagonal into d, of length Len: the bits
// every kernel derives, (wire + G[k]) + shift.
func (a *CrossbarOp) diagonal(d []float64) {
	n, mn := a.N, len(a.G)
	wr := a.wire[:n]
	for lo := 0; lo < mn; lo += n {
		g, dr := a.G[lo:lo+n], d[lo:lo+n]
		for k := range dr {
			dr[k] = (wr[k] + g[k]) + a.rowShift
		}
	}
	for m := 0; m < a.M; m++ {
		lo := m * n
		wc, g, dc := a.wire[n+m], a.G[lo:lo+n], d[mn+lo:mn+lo+n]
		for k := range dc {
			dc[k] = (wc + g[k]) + a.colShift
		}
	}
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
		lo := blk * a.N
		a.block(blk, x, y[lo:lo+a.N])
	}
	return y
}

// residual sets r = b − A·x and returns r·r and b·b. Every float is the
// one MulVec, the subtraction pass and Norm2's sums of squares produce, in
// their index order. Each block of N nodes of A·x goes to ax, an N-float
// scratch, and is finished while it is in cache, so the vectors are read
// once; b[i] is read before r[i] is written, so b may alias r.
//
//lint:hotpath
func (a *CrossbarOp) residual(b, x, r, ax []float64) (rr, bb float64) {
	ax = ax[:a.N]
	for blk := 0; blk < 2*a.M; blk++ {
		a.block(blk, x, ax)
		lo := blk * a.N
		rb, bv := r[lo:lo+a.N], b[lo:lo+a.N]
		rb, bv = rb[:len(ax)], bv[:len(ax)]
		for i, y := range ax {
			bi := bv[i]
			ri := bi - y
			rb[i] = ri
			rr += ri * ri
			bb += bi * bi
		}
	}
	return rr, bb
}

// mulVecDot sets y = A·x and returns x·y, bit-identical to MulVec followed
// by Dot(x, y), in one pass over the vectors.
//
//lint:hotpath
func (a *CrossbarOp) mulVecDot(x, y []float64) float64 {
	dot := 0.0
	for blk := 0; blk < 2*a.M; blk++ {
		lo := blk * a.N
		yb, xb := y[lo:lo+a.N], x[lo:lo+a.N]
		a.block(blk, x, yb)
		for i := range yb {
			dot += xb[i] * yb[i]
		}
	}
	return dot
}

// block sets y, of length N, to the entries of A·x for node block blk:
// blocks 0…M−1 are the row nodes of crossbar row blk, blocks M…2M−1 the
// column nodes of crossbar row blk−M.
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
// column node, into yr; the self entry is (wire[n] + G[k]) + rowShift.
//
//lint:hotpath
func (a *CrossbarOp) rowNodes(m int, x, yr []float64) {
	n, mn := a.N, a.M*a.N
	lo := m * n
	xr, xc := x[lo:lo+n], x[mn+lo:mn+lo+n]
	w, g, yr := a.wire[:n], a.G[lo:lo+n], yr[:n]
	ngw, sh := -a.GW, a.rowShift
	if n == 1 {
		s := 0.0
		s += ((w[0] + g[0]) + sh) * xr[0]
		s += -g[0] * xc[0]
		yr[0] = s
		return
	}
	s := 0.0
	s += ((w[0] + g[0]) + sh) * xr[0]
	s += ngw * xr[1]
	s += -g[0] * xc[0]
	yr[0] = s
	for k := 1; k < n-1; k++ {
		s := 0.0
		s += ngw * xr[k-1]
		s += ((w[k] + g[k]) + sh) * xr[k]
		s += ngw * xr[k+1]
		s += -g[k] * xc[k]
		yr[k] = s
	}
	t := n - 1
	s = 0.0
	s += ngw * xr[t-1]
	s += ((w[t] + g[t]) + sh) * xr[t]
	s += -g[t] * xc[t]
	yr[t] = s
}

// colNodes sums each column node of crossbar row m as row node, up, self,
// down, into yc; the first row has no up neighbour and the last no down
// one, and the self entry is (wire[N+m] + G[k]) + colShift.
//
//lint:hotpath
func (a *CrossbarOp) colNodes(m int, x, yc []float64) {
	n, mn := a.N, a.M*a.N
	lo := mn + m*n
	xr, xc := x[lo-mn:lo-mn+n], x[lo:lo+n]
	g := a.G[lo-mn : lo-mn+n]
	xr, g, yc = xr[:len(xc)], g[:len(xc)], yc[:len(xc)]
	ngw, wc, sh := -a.GW, a.wire[n+m], a.colShift
	switch up, down := m > 0, m < a.M-1; {
	case up && down:
		xu, xd := x[lo-n:lo], x[lo+n:lo+2*n]
		xu, xd = xu[:len(xc)], xd[:len(xc)]
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += ngw * xu[k]
			s += ((wc + g[k]) + sh) * xc[k]
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
			s += ((wc + g[k]) + sh) * xc[k]
			yc[k] = s
		}
	case down:
		xd := x[lo+n : lo+2*n]
		xd = xd[:len(xc)]
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += ((wc + g[k]) + sh) * xc[k]
			s += ngw * xd[k]
			yc[k] = s
		}
	default:
		for k := range xc {
			s := 0.0
			s += -g[k] * xr[k]
			s += ((wc + g[k]) + sh) * xc[k]
			yc[k] = s
		}
	}
}
