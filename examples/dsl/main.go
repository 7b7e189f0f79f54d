// DSL: the two-phase compilation methodology end to end. The stencil
// specification in specs/heat2d.pch is
//
//	Phase 1: parsed, checked (shape inference + the Pochoir Guarantee) and
//	         run per point through the checked Array API (RunChecked);
//	served:  the same checked tree lowered to the row program every
//	         pochoird job runs (Instance.Run) — interior clone plus the
//	         row-splitting boundary clone; and
//	Phase 2: the committed output of `pochoirgen` (gen/heat2d_gen.go) runs
//	         the same computation with the compiled split-pointer interior
//	         kernel and a per-point boundary clone,
//
// and the program verifies the paths produce bit-identical results while
// timing the last two. On a periodic grid this small the generated code's
// per-point boundary clone carries a large share of the zoids, which is why
// the row program — whose boundary clone is also row-compiled — can win.
//
// Run from the repository root with:
//
//	go run ./examples/dsl
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"pochoir"
	"pochoir/examples/dsl/gen"
	"pochoir/internal/compiler"
)

const (
	xSize, ySize = 400, 400
	steps        = 100
)

func initField() []float64 {
	rng := rand.New(rand.NewSource(99))
	f := make([]float64, xSize*ySize)
	for i := range f {
		f[i] = rng.Float64()
	}
	return f
}

func main() {
	src, err := os.ReadFile("examples/dsl/specs/heat2d.pch")
	if err != nil {
		log.Fatal("run from the repository root: ", err)
	}

	// Phase 1: compile the specification and report what was inferred.
	checked, err := compiler.CompileSource(string(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stencil %q: dims=%d depth=%d\n", checked.Prog.Name, checked.Prog.Dims, checked.Depth)
	fmt.Printf("inferred shape: %s\n", checked.Shape)
	fmt.Printf("slopes: %v\n\n", checked.Shape.Slopes())

	inst, err := checked.NewInstance(xSize, ySize)
	if err != nil {
		log.Fatal(err)
	}
	if err := inst.Arrays["u"].CopyIn(0, initField()); err != nil {
		log.Fatal(err)
	}
	// The Pochoir Guarantee: run a few steps with every access verified
	// against the inferred shape.
	if err := inst.RunChecked(2); err != nil {
		log.Fatal("Phase-1 compliance check failed: ", err)
	}
	fmt.Println("Phase 1: specification is Pochoir-compliant (2 checked steps)")

	// The remaining steps on the row-program clones.
	start := time.Now()
	if err := inst.Run(steps-2, pochoir.Options{}); err != nil {
		log.Fatal(err)
	}
	rowTime := time.Since(start)
	want := make([]float64, xSize*ySize)
	if err := inst.Arrays["u"].CopyOut(steps, want); err != nil {
		log.Fatal(err)
	}

	// Phase 2: the committed pochoirgen output.
	compiled, err := gen.NewHeat2d(xSize, ySize)
	if err != nil {
		log.Fatal(err)
	}
	if err := compiled.U.CopyIn(0, initField()); err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := compiled.Run(steps); err != nil {
		log.Fatal(err)
	}
	compiledTime := time.Since(start)
	got := make([]float64, xSize*ySize)
	if err := compiled.U.CopyOut(steps, got); err != nil {
		log.Fatal(err)
	}

	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("generated and row-program paths diverge at %d: %g vs %g", i, got[i], want[i])
		}
	}
	fmt.Printf("Phase 2: generated code matches the checked + row-program run bit for bit\n\n")
	fmt.Printf("row program (Instance.Run, %d steps): %v\n", steps-2, rowTime)
	fmt.Printf("generated split-pointer (%d steps):   %v\n", steps, compiledTime)
}
