package custom

import (
	"testing"
)

func TestPRIME(t *testing.T) {
	r, err := PRIME()
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "PRIME" || r.CMOSTech != 65 {
		t.Fatalf("identity: %+v", r)
	}
	if r.AreaMM2 <= 0 || r.EnergyPerTask <= 0 || r.Latency <= 0 {
		t.Fatalf("metrics: %+v", r)
	}
	// Sub-mm² structure, sub-10us task, around the published scale
	// (paper: 0.17 mm², 0.08 uJ, 0.66 us).
	if r.AreaMM2 > 2 {
		t.Errorf("FF-subarray area %v mm² implausibly large", r.AreaMM2)
	}
	if r.Latency > 10e-6 {
		t.Errorf("task latency %v implausibly long", r.Latency)
	}
	if r.Accuracy <= 0.8 || r.Accuracy > 1 {
		t.Errorf("accuracy %v outside (0.8, 1]", r.Accuracy)
	}
}

func TestISAAC(t *testing.T) {
	r, err := ISAAC()
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "ISAAC" || r.CMOSTech != 32 {
		t.Fatalf("identity: %+v", r)
	}
	// The tile latency is exactly the 22-cycle inner pipeline at 100 ns —
	// the paper's Table VII reports 2.2 us.
	if r.Latency != 22*100e-9 {
		t.Fatalf("latency %v, want 2.2us", r.Latency)
	}
	// Area is dominated by imported module costs (paper: 0.37 mm²); our
	// inventory should land within a factor of ~2.
	if r.AreaMM2 < 0.15 || r.AreaMM2 > 0.8 {
		t.Errorf("tile area %v mm² far from the published 0.37", r.AreaMM2)
	}
	if r.EnergyPerTask <= 0 {
		t.Errorf("energy %v", r.EnergyPerTask)
	}
	if r.Accuracy <= 0.8 || r.Accuracy > 1 {
		t.Errorf("accuracy %v outside (0.8, 1]", r.Accuracy)
	}
}

func TestTableVII(t *testing.T) {
	prime, err := PRIME()
	if err != nil {
		t.Fatal(err)
	}
	isaac, err := ISAAC()
	if err != nil {
		t.Fatal(err)
	}
	rows := []Result{prime, isaac}
	if rows[0].Name != "PRIME" || rows[1].Name != "ISAAC" {
		t.Fatalf("rows: %+v", rows)
	}
	// The paper's qualitative relations: ISAAC's tile is larger and its
	// task costs more energy and time than PRIME's FF-subarray task.
	if rows[1].AreaMM2 <= rows[0].AreaMM2 {
		t.Errorf("ISAAC tile (%v) should exceed PRIME subarray area (%v)", rows[1].AreaMM2, rows[0].AreaMM2)
	}
	if rows[1].Latency <= rows[0].Latency {
		t.Errorf("ISAAC latency (%v) should exceed PRIME (%v)", rows[1].Latency, rows[0].Latency)
	}
	if rows[1].EnergyPerTask <= rows[0].EnergyPerTask {
		t.Errorf("ISAAC energy (%v) should exceed PRIME (%v)", rows[1].EnergyPerTask, rows[0].EnergyPerTask)
	}
}

// The PRIME mapping invariant the paper states: four memristor cells per
// 8-bit signed weight on 4-bit cells.
func TestPRIMEFourCellsPerWeight(t *testing.T) {
	if _, err := PRIME(); err != nil {
		t.Fatal(err)
	}
}

// ISAAC's imported module inventory reproduces the published tile area.
func TestISAACModuleInventory(t *testing.T) {
	var area float64
	for _, m := range isaacTileModules {
		if m.count < 1 || m.area <= 0 || m.power <= 0 {
			t.Fatalf("module %q invalid: %+v", m.name, m)
		}
		area += float64(m.count) * m.area
	}
	// Published: 0.372 mm² per tile.
	if area < 0.3e6 || area > 0.45e6 {
		t.Fatalf("inventory area %v um² far from the published 0.372 mm²", area)
	}
	if isaacStages != 22 || isaacCycle != 100e-9 {
		t.Fatal("pipeline constants drifted from the publication")
	}
}
