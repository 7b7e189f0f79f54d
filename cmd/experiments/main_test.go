package main

import "testing"

// TestQuickExperiments runs, at -quick scale, the experiments that
// type-assert their instances at run time: an instance without the method,
// or an ablation whose result is off the serial loops, panics.
func TestQuickExperiments(t *testing.T) {
	*quick, *benchName = true, "Heat 2p"
	defer func() { *quick, *benchName = false, "" }()
	for _, e := range []struct {
		name string
		run  func()
	}{{"fig13", runFig13}, {"mod", runMod}, {"fig3", runFig3}} {
		t.Run(e.name, func(t *testing.T) { e.run() })
	}
}
