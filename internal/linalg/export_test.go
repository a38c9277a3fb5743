package linalg

// diag returns the operator's diagonal as every kernel derives it, in a
// new vector: the entries a stored diagonal would hold.
func (a *CrossbarOp) diag() []float64 {
	d := make([]float64, a.Len())
	a.diagonal(d)
	return d
}
