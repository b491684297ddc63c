package main

import (
	"io"
	"testing"
)

// TestSmoke runs all four workloads at the smoke shapes, untraced and
// traced, through the same code the real runs use, so the harness cannot
// rot between the occasions somebody runs the full ledger.
func TestSmoke(t *testing.T) {
	weights := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(runOpts{workload: w, seed: 7, seconds: 0, traced: traced, smoke: true, outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v, failed %d of %d, problems %v", w.Name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or in %q, want %q", w.Name, d.Name, v.Unit, d.Unit)
				}
				// End-to-end metrics gate later changes by ratio: none may be 0.
				if !traced && v.Value <= 0 {
					t.Errorf("%s: %s = %v", w.Name, d.Name, v.Value)
				}
			}
			if traced {
				if f := rep.Metrics["trace.unattributed_frac"].Value; f > 0.10 {
					t.Errorf("%s: %.1f%% of run_s is covered by no layer span", w.Name, 100*f)
				}
				if w.TCP && rep.Metrics["wire.bytes_down"].Value <= 0 {
					t.Errorf("%s: the conn seam saw no update bytes", w.Name)
				}
			}
			if prev, ok := weights[w.Name]; ok && prev != rep.FinalWeights {
				t.Errorf("%s: traced and untraced runs ended on different weights", w.Name)
			}
			weights[w.Name] = rep.FinalWeights
		}
	}
	// Barrier audit in-process against stream audit, codec and checkpoints
	// over TCP: same seed, same data, same bytes.
	if weights["fedguard-inproc"] != weights["fedguard-tcp"] {
		t.Errorf("fedguard-inproc ended on %s, fedguard-tcp on %s", weights["fedguard-inproc"], weights["fedguard-tcp"])
	}
}
