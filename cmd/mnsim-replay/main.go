// Command mnsim-replay re-runs a solve captured by the flight recorder and
// asserts the recorded outcome is reproduced bit for bit. It accepts a
// snapshot file written next to a journal (-journal on any mnsim CLI) or a
// journal .jsonl, in which case every snapshot the journal references is
// replayed in order. A snapshot is named <journal>.snap-<id>.<kind>.json,
// <id> the id of the failed solve's or settling run's journal event (its
// span's ID); replay finds snapshots through the events' snapshot paths
// and reads no ID.
//
// Usage:
//
//	mnsim-replay run.jsonl.snap-25e9e1603b55d8a5.divergence.json  # replay one snapshot
//	mnsim-replay -v run.jsonl                             # replay a whole journal, verbose
//	mnsim-replay -sp out.sp snap.json                     # also emit the SPICE netlist
//	mnsim-replay -force-divergence -journal run.jsonl     # capture a known-bad solve
//
// -force-divergence runs a deliberately pathological solve (a sinh device
// too steep for Newton) under the flight recorder and prints the snapshot
// path it captured — the self-test for the record-then-replay loop, and a
// ready-made specimen for the EXPERIMENTS.md walkthrough. Exit status is 0
// only when every replayed snapshot reproduces bit-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"mnsim/internal/circuit"
	"mnsim/internal/device"
	"mnsim/internal/replay"
	"mnsim/internal/telemetry"
)

func main() {
	verbose := flag.Bool("v", false, "print per-iteration diagnostics of the re-run")
	spOut := flag.String("sp", "", "also write the snapshot's crossbar as a SPICE netlist to this file")
	journal := flag.String("journal", "", "record this replay's own flight-recorder journal (JSONL) to this file")
	force := flag.Bool("force-divergence", false, "run a deliberately diverging solve under the recorder and print the captured snapshot path")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := run(ctx, os.Stdout, flag.Arg(0), *spOut, *journal, *force, *verbose)
	if cerr := telemetry.DefaultJournal().Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnsim-replay:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, w io.Writer, path, spOut, journal string, force, verbose bool) error {
	if journal != "" {
		j := telemetry.DefaultJournal()
		if err := j.Open(journal); err != nil {
			return err
		}
		j.SetMeta("mnsim-replay", nil)
	}
	if force {
		return forceDivergence(ctx, w, journal)
	}
	if path == "" {
		return fmt.Errorf("usage: mnsim-replay [-v] [-sp out.sp] <snapshot.json | journal.jsonl> (or -force-divergence -journal out.jsonl)")
	}
	if spOut != "" {
		if err := writeNetlist(path, spOut); err != nil {
			return fmt.Errorf("-sp needs a snapshot file: %w", err)
		}
		fmt.Fprintf(w, "replay: netlist written to %s\n", spOut)
	}
	n, err := replay.File(ctx, path, w, verbose)
	if err != nil {
		// A journal written by a newer mnsim carries its own remedy in the
		// error text; strip any wrapping so it reads as one clean line.
		var sv *telemetry.SchemaVersionError
		if errors.As(err, &sv) {
			return sv
		}
		return err
	}
	fmt.Fprintf(w, "replay: %d snapshot(s) reproduced bit-identically\n", n)
	return nil
}

// forceDivergence runs the known-pathological solve from the solver's own
// failure tests: a sinh I–V law far too steep for Newton to converge. With
// the journal open, the divergence auto-snapshots; the printed path is
// ready to hand back to mnsim-replay.
func forceDivergence(ctx context.Context, w io.Writer, journal string) error {
	if journal == "" {
		return fmt.Errorf("-force-divergence needs -journal: the snapshot is written next to the journal file")
	}
	dev := device.RRAM()
	dev.NonlinearVc = 2e-3
	r := make([][]float64, 2)
	for i := range r {
		r[i] = []float64{100e3, 100e3}
	}
	c := &circuit.Crossbar{M: 2, N: 2, R: r, WireR: 1, RSense: 1500, Dev: dev}
	_, err := c.SolveContext(ctx, []float64{0.3, 0.3}, circuit.SolveOptions{MaxNewton: 5})
	if !errors.Is(err, circuit.ErrNewtonDiverged) {
		return fmt.Errorf("forced solve did not diverge: %v", err)
	}
	// The snapshot path is read back from the journal below, so a failed
	// flush-on-close means the self-test cannot be trusted.
	if cerr := telemetry.DefaultJournal().Close(); cerr != nil {
		return fmt.Errorf("closing journal: %w", cerr)
	}
	events, rerr := telemetry.ReadJournalFile(journal)
	if rerr != nil {
		return rerr
	}
	snaps := telemetry.JournalSnapshotPaths(journal, events)
	if len(snaps) == 0 {
		return fmt.Errorf("forced divergence captured no snapshot in %s", journal)
	}
	fmt.Fprintf(w, "forced divergence captured: %v\n", err)
	// Machine-readable last line: CI and scripts take the snapshot path
	// from here.
	fmt.Fprintln(w, snaps[len(snaps)-1])
	return nil
}

// writeNetlist emits the snapshot's crossbar as a SPICE deck driven by the
// snapshot's input vector.
func writeNetlist(snapPath, out string) (err error) {
	s, err := circuit.LoadSnapshot(snapPath)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return s.Crossbar().WriteNetlist(f, s.Vin)
}
