package circuit

import (
	"bytes"
	"testing"
)

// FuzzLoadSnapshot checks the snapshot reader — the trust boundary
// mnsim-replay reads from disk — never panics on decode plus Validate, and
// that any document it accepts round-trips through WriteSnapshot: the
// written form decodes, validates, and writes back byte-identically.
func FuzzLoadSnapshot(f *testing.F) {
	c := divergentCrossbar()
	vin := []float64{0.3, 0.3}
	opt := SolveOptions{MaxNewton: 5}
	_, err := c.Solve(vin, opt)
	if err == nil {
		f.Fatal("divergence specimen converged")
	}
	var seed bytes.Buffer
	if err := WriteSnapshot(&seed, c.NewSnapshot(vin, opt, nil, err)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"schema_version":1,"kind":"dc","m":1,"n":1,"r":[[1e5]],"wire_r":1,"rsense":1e3,"linear":true,"vin":[0.1],"options":{"precond":"block-jacobi","no_cost_accounting":false}}`))
	f.Add([]byte(`{"schema_version":1,"kind":"transient","m":1,"n":1,"r":[[1e5]],"rsense":1e3,"linear":true,"vin":[0.1],"transient":{}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnapshot(b)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var first bytes.Buffer
		if err := WriteSnapshot(&first, s); err != nil {
			t.Fatalf("accepted snapshot failed to write: %v", err)
		}
		back, err := decodeSnapshot(first.Bytes())
		if err != nil {
			t.Fatalf("written snapshot failed to re-load: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteSnapshot(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip drifted:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
