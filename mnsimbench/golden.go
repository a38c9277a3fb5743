package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"mnsim/internal/validate"
)

// defaultSeed is the workload seed the golden Table II rows are pinned for.
const defaultSeed = 1

// goldenTable2 maps an op index of a default-seed run to the digest of the
// rows that op must produce. It covers every warm-up op of the three setup
// rounds and the first timed ops; regenerate it with
// `go test -run TestGoldenTable2 -update` after a change that is meant to
// alter Table II's numbers.
//
//go:embed golden_table2.json
var goldenTable2JSON []byte

type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// goldenFor returns the pinned digests for seed, or nil when none are.
func goldenFor(seed int64) map[int]string {
	var g goldenFile
	if err := json.Unmarshal(goldenTable2JSON, &g); err != nil {
		panic(fmt.Sprintf("golden_table2.json: %v", err)) // embedded at build time
	}
	if g.Seed != seed {
		return nil
	}
	out := make(map[int]string, len(g.Digests))
	for k, v := range g.Digests {
		i, err := strconv.Atoi(k)
		if err != nil {
			panic(fmt.Sprintf("golden_table2.json: op index %q: %v", k, err))
		}
		out[i] = v
	}
	return out
}

// rowsDigest is an FNV-1a hash over the exact bits of every row's model and
// circuit value, so any change to any digit shows.
func rowsDigest(rows []validate.Row) string {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		for _, x := range []float64{r.Model, r.Circuit} {
			u := math.Float64bits(x)
			for k := range b {
				b[k] = byte(u >> (8 * k))
			}
			_, _ = h.Write(b[:]) // hash writes never fail
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
