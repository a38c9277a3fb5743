package circuit

import (
	"bufio"
	"fmt"
	"io"
)

// WriteNetlist emits the crossbar as a SPICE deck for external circuit-level
// simulators (Section IV.A of the paper). Wire segments and sensing
// resistors become R elements; each memristor becomes either a plain
// resistor (Linear) or a behavioural current source implementing the sinh
// I–V law. Node names follow the solver's topology: ri_m_n / ci_m_n for the
// cell input/output nodes and in_m for the driven row heads.
func (c *Crossbar) WriteNetlist(w io.Writer, vin []float64) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if len(vin) != c.M {
		return fmt.Errorf("circuit: input vector length %d, want %d", len(vin), c.M)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "* MNSIM-Go crossbar netlist %dx%d\n", c.M, c.N)
	fmt.Fprintf(bw, "* wire segment r=%g ohm, sense Rs=%g ohm\n", c.WireR, c.RSense)
	elem := 0
	wireR := c.WireR
	if wireR <= 0 {
		wireR = 1e-9 // SPICE dislikes exact zero-ohm resistors
	}
	for m := 0; m < c.M; m++ {
		fmt.Fprintf(bw, "Vin%d in_%d 0 DC %g\n", m, m, vin[m])
		fmt.Fprintf(bw, "Rsrc%d in_%d ri_%d_0 %g\n", m, m, m, wireR)
		for n := 0; n+1 < c.N; n++ {
			fmt.Fprintf(bw, "Rrow%d ri_%d_%d ri_%d_%d %g\n", elem, m, n, m, n+1, wireR)
			elem++
		}
	}
	for n := 0; n < c.N; n++ {
		for m := 0; m+1 < c.M; m++ {
			fmt.Fprintf(bw, "Rcol%d ci_%d_%d ci_%d_%d %g\n", elem, m, n, m+1, n, wireR)
			elem++
		}
		fmt.Fprintf(bw, "Rs%d ci_%d_%d 0 %g\n", n, c.M-1, n, c.RSense)
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			if c.Linear {
				fmt.Fprintf(bw, "Rcell_%d_%d ri_%d_%d ci_%d_%d %g\n", m, n, m, n, m, n, c.R[m][n])
			} else {
				// Behavioural sinh source calibrated so V_read/I(V_read)
				// equals the programmed resistance.
				a := c.Dev.Prefactor(c.R[m][n])
				fmt.Fprintf(bw, "Gcell_%d_%d ri_%d_%d ci_%d_%d CUR='%g*sinh(V(ri_%d_%d,ci_%d_%d)/%g)'\n",
					m, n, m, n, m, n, a, m, n, m, n, c.Dev.NonlinearVc)
			}
		}
	}
	fmt.Fprintln(bw, ".op")
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}
