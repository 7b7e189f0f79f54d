// Durable checkpoints: a run that survives its own process.
//
// SupervisePolicy.SpillDir makes the supervisor persist every segment
// checkpoint to a crash-safe journal: the versioned binary wire format
// (pochoir-checkpoint/v2) is written to a temp file, fsynced, and renamed
// into place, so a crash mid-write can never corrupt an older entry. A
// fresh process then calls ResumeSupervised on the same directory: the
// newest CRC-valid entry is decoded and restored, torn or corrupted tails
// are skipped, and only the remaining time steps are recomputed.
//
// This example runs Heat 2D under a kernel that becomes persistently
// broken at 60% progress. The supervisor exhausts its retries and gives
// up — as a real process would if it were OOM-killed or lost power — but
// the journal keeps the checkpoints it spilled on the way. A second,
// fresh stencil resumes from the journal with a healthy kernel and
// finishes the run; the result is bit-identical to an uninterrupted
// reference run.
//
// Run with:
//
//	go run ./examples/durable
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"pochoir"
)

const (
	X, Y  = 128, 128
	T     = 48
	cx_   = 0.125
	cy_   = 0.125
	crash = T * 6 / 10
)

func newHeat() (*pochoir.Stencil[float64], *pochoir.Array[float64]) {
	sh := pochoir.MustShape(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
	st := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	st.MustRegisterArray(u)
	for x := 0; x < X; x++ {
		for y := 0; y < Y; y++ {
			u.Set(0, float64((x*31+y*17)%97)/97, x, y)
		}
	}
	return st, u
}

func heatKernel(u *pochoir.Array[float64], broken bool) pochoir.Kernel {
	return pochoir.K2(func(t, x, y int) {
		if broken && t >= crash && x == X/2 && y == Y/2 {
			panic("power supply browning out") // persistent: retries can't help
		}
		c := u.Get(t, x, y)
		u.Set(t+1, c+
			cx_*(u.Get(t, x+1, y)-2*c+u.Get(t, x-1, y))+
			cy_*(u.Get(t, x, y+1)-2*c+u.Get(t, x, y-1)), x, y)
	})
}

func main() {
	dir, err := os.MkdirTemp("", "pochoir-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Reference: the uninterrupted run this whole dance must reproduce.
	ref, refU := newHeat()
	if err := ref.Run(T, heatKernel(refU, false)); err != nil {
		log.Fatal(err)
	}

	// Act I: a spilling run that dies at 60% progress. MaxAttempts is kept
	// low and the degradation ladder cut to a single rung so the persistent
	// fault actually kills the process-equivalent instead of being walked
	// around (the kernel itself is broken, so no engine could save it —
	// the short ladder just makes the give-up fast).
	fmt.Printf("act I: supervised run with SpillDir=%s, kernel breaks at step %d\n", dir, crash)
	first, firstU := newHeat()
	rep, err := first.RunSupervised(context.Background(), T, heatKernel(firstU, true),
		pochoir.SupervisePolicy{
			SegmentSteps: 6,
			MaxAttempts:  2,
			Ladder:       []pochoir.SupervisorEngine{pochoir.EngineFull},
			SpillDir:     dir,
		})
	if err == nil {
		log.Fatal("expected the broken kernel to defeat supervision")
	}
	fmt.Printf("  run died as designed: %v\n", err)
	if rep != nil {
		fmt.Printf("  journal holds the progress: %d spills, %d bytes, newest at step %d (%s)\n",
			rep.Spills, rep.SpillBytes, rep.LastSpillStep, rep.LastSpillPath)
	}

	entries, err := pochoir.ListSpillJournal(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n  journal contents:")
	for _, e := range entries {
		fmt.Printf("    step %4d  %7d bytes  %s\n", e.Steps, e.Bytes, e.Path)
	}

	// Act II: a fresh stencil — think "new process after the crash" — with
	// a healthy kernel resumes from the newest good entry and finishes.
	fmt.Println("\nact II: fresh stencil resumes from the journal")
	second, secondU := newHeat()
	rep2, err := second.ResumeSupervised(context.Background(), T, heatKernel(secondU, false),
		pochoir.SupervisePolicy{SegmentSteps: 6, SpillDir: dir})
	if err != nil {
		log.Fatalf("resume failed: %v", err)
	}
	fmt.Printf("  recomputed only %d of %d steps\n", rep2.StepsDone, T)
	fmt.Println("\n  supervisor decision log:")
	for _, ev := range rep2.Events {
		fmt.Printf("    %s\n", ev)
	}

	// The resumed grid must be bit-identical to the uninterrupted one.
	for x := 0; x < X; x++ {
		for y := 0; y < Y; y++ {
			if got, want := secondU.Get(T, x, y), refU.Get(T, x, y); got != want {
				log.Fatalf("divergence at (%d,%d): resumed %v, reference %v", x, y, got, want)
			}
		}
	}
	fmt.Printf("\nresumed result is bit-identical to the uninterrupted %d-step run\n", T)
}
