package main

import "testing"

// TestQuickExperiments runs, at -quick scale, the experiments that
// type-assert their instances at run time or check a result: an instance
// without the method, an ablation whose result is off the serial loops, or
// a Fig. 9 replay whose base cases differ from the run's, panics.
func TestQuickExperiments(t *testing.T) {
	*quick, *benchName = true, "Heat 2p"
	defer func() { *quick, *benchName = false, "" }()
	for _, e := range []struct {
		name string
		run  func()
	}{{"fig13", runFig13}, {"mod", runMod}, {"fig3", runFig3}, {"fig9", runFig9}} {
		t.Run(e.name, func(t *testing.T) { e.run() })
	}
}
