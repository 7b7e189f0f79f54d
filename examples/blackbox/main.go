// Blackbox: the always-on flight recorder and automatic crash bundles.
//
// Every run appends its recent execution events — cuts, base cases, panics,
// supervisor decisions — to a bounded black-box ring buffer, by default and
// at negligible cost. Nothing is written anywhere while runs succeed. When a
// run dies, the rings freeze and a pochoir-postmortem/v1 JSON bundle lands
// in the diagnostics directory: the failure cause with the failing zoid, the
// merged recent-event window, a goroutine dump, and host provenance. This
// example crashes a run on purpose, then reads its own crash bundle back the
// way `cmd/blackbox` (or an operator, or a dashboard) would.
//
// Run with:
//
//	go run ./examples/blackbox
//
// (the bundle goes to POCHOIR_POSTMORTEM_DIR when it is set, else to a
// fresh temp directory) and render the printed bundle path with:
//
//	go run ./cmd/blackbox show <path>
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pochoir"
)

func main() {
	// Bundles default under the OS temp dir; unless told where, keep this
	// demo's private.
	dir := os.Getenv("POCHOIR_POSTMORTEM_DIR")
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "blackbox-example"); err != nil {
			log.Fatal(err)
		}
		os.Setenv("POCHOIR_POSTMORTEM_DIR", dir)
	}

	const X, Y, T = 128, 128, 40
	sh := pochoir.MustShape(2, [][]int{
		{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, -1}, {0, 0, 1},
	})
	heat := pochoir.New[float64](sh)
	u := pochoir.MustArray[float64](sh.Depth(), X, Y)
	u.RegisterBoundary(pochoir.PeriodicBoundary[float64]())
	heat.MustRegisterArray(u)
	for x := 0; x < X; x++ {
		for y := 0; y < Y; y++ {
			u.Set(0, float64((x*31+y*17)%97)/97, x, y)
		}
	}

	// A kernel with a bug nobody was watching for: it panics deep into the
	// run, on some worker goroutine, at 90% of the way through.
	kern := pochoir.K2(func(t, x, y int) {
		if t == T*9/10 && x == X/3 && y == Y/3 {
			panic("numerical guard tripped")
		}
		c := u.Get(t, x, y)
		u.Set(t+1, c+
			0.125*(u.Get(t, x+1, y)-2*c+u.Get(t, x-1, y))+
			0.125*(u.Get(t, x, y+1)-2*c+u.Get(t, x, y-1)), x, y)
	})

	fmt.Println("running a doomed stencil (flight recorder on by default)...")
	if err := heat.Run(T, kern); err != nil {
		fmt.Printf("run failed: %v\n\n", err)
	}

	// The black box already did its job: the last incident is in memory and
	// the bundle is on disk. A crashed service's *next* process would find
	// the file; a live one serves it at /debug/flightz on the monitor.
	inc := pochoir.LastIncident()
	if inc == nil {
		log.Fatal("no incident recorded")
	}
	fmt.Printf("incident at %s, cause %s\n", inc.Time.Format("15:04:05.000"), inc.Cause.Kind)
	fmt.Printf("bundle: %s\n\n", inc.Path)

	b, err := pochoir.ReadPostmortemBundle(inc.Path)
	if err != nil {
		log.Fatal(err)
	}
	if z := b.Cause.Zoid; z != nil {
		fmt.Printf("the panic was executing zoid t=[%d,%d) lo=%v hi=%v\n", z.T0, z.T1, z.Lo, z.Hi)
	}
	fmt.Printf("window: %d recent events across %d worker lanes; the last few:\n", len(b.Events), b.Lanes)
	tail := 6
	if tail > len(b.Events) {
		tail = len(b.Events)
	}
	for _, ev := range b.Events[len(b.Events)-tail:] {
		fmt.Printf("  w%d  %s\n", ev.Worker, ev.Describe())
	}
	fmt.Printf("\nrender it fully with: go run ./cmd/blackbox show %s\n", filepath.Join(dir, filepath.Base(inc.Path)))
}
