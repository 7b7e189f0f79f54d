// Command blackbox renders pochoir post-mortem bundles — the
// pochoir-postmortem/v1 crash artifacts the flight recorder writes when a
// run dies (see pochoir.FlightRecorder and POCHOIR_POSTMORTEM_DIR).
//
//	blackbox list                 list bundles in the diagnostics directory
//	blackbox show [BUNDLE]        header, per-worker lane timeline, final events
//	blackbox diff [BUNDLE]        failing segment vs the preceding healthy one
//	blackbox trace [BUNDLE]       export the event window as a Chrome trace
//	blackbox checkpoints [TARGET] list a spill journal, or inspect one entry
//
// With BUNDLE omitted every subcommand loads the newest bundle in the
// diagnostics directory (POCHOIR_POSTMORTEM_DIR, default under the OS temp
// dir) — "what just crashed?" is the common case. The trace subcommand
// writes Chrome trace-event JSON (-o FILE, default postmortem-trace.json)
// loadable in chrome://tracing or https://ui.perfetto.dev, one instant-event
// track per worker lane, written by the same writer as a job's /tracez
// trace.
//
// checkpoints takes a spill-journal directory (lists every entry, validating
// each end to end) or a single entry file (decodes and prints its header and
// array sections). With no TARGET it follows the newest bundle's resume
// hint — the journal the crashed run was spilling to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pochoir/internal/flight"
	"pochoir/internal/profile"
	"pochoir/internal/trace"
	"pochoir/internal/wire"
)

func main() {
	args := os.Args[1:]
	cmd := "show"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "list":
		err = runList()
	case "show":
		err = runShow(args)
	case "diff":
		err = runDiff(args)
	case "trace":
		err = runTrace(args)
	case "checkpoints":
		err = runCheckpoints(args)
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "blackbox: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blackbox: %v\n", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprintf(w, `usage: blackbox [list|show|diff|trace|checkpoints] [flags] [ARG]

  list                 list bundles in the diagnostics directory
  show [BUNDLE]        render a bundle (default: the newest one)
  diff [BUNDLE]        compare the failing segment against the preceding one
  trace [BUNDLE]       write a Chrome trace of the event window (-o FILE)
  checkpoints [TARGET] list a spill-journal directory or inspect one entry
                       (default: the newest bundle's resume hint)

diagnostics directory: %s
`, flight.DefaultDir())
}

// bundles lists the post-mortem bundle paths in the diagnostics directory,
// oldest first (the zero-padded timestamp filenames make lexical order
// chronological).
func bundles() ([]string, error) {
	dir := flight.DefaultDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "postmortem-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// load resolves the bundle argument: an explicit path, or the newest bundle
// in the diagnostics directory.
func load(path string) (*flight.Bundle, string, error) {
	if path == "" {
		all, err := bundles()
		if err != nil {
			return nil, "", err
		}
		if len(all) == 0 {
			return nil, "", fmt.Errorf("no bundles in %s (set %s or pass a path)",
				flight.DefaultDir(), flight.DirEnvVar)
		}
		path = all[len(all)-1]
	}
	b, err := flight.ReadBundle(path)
	if err != nil {
		return nil, "", err
	}
	return b, path, nil
}

func runList() error {
	all, err := bundles()
	if err != nil {
		return err
	}
	if len(all) == 0 {
		fmt.Printf("no bundles in %s\n", flight.DefaultDir())
		return nil
	}
	for _, p := range all {
		b, err := flight.ReadBundle(p)
		if err != nil {
			fmt.Printf("%s  (unreadable: %v)\n", p, err)
			continue
		}
		fmt.Printf("%s  %s  %-15s  %d events  %s\n",
			b.WrittenAt.Format(time.RFC3339), filepath.Base(p), b.Cause.Kind,
			len(b.Events), b.Cause.Error)
	}
	return nil
}

func runShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	tail := fs.Int("tail", 20, "final events to print")
	width := fs.Int("width", 72, "timeline columns")
	fs.Parse(args)
	b, path, err := load(fs.Arg(0))
	if err != nil {
		return err
	}

	fmt.Printf("bundle    %s\n", path)
	fmt.Printf("schema    %s  written %s\n", b.Schema, b.WrittenAt.Format(time.RFC3339))
	fmt.Printf("cause     %s: %s\n", b.Cause.Kind, b.Cause.Error)
	if z := b.Cause.Zoid; z != nil {
		fmt.Printf("zoid      t=[%d,%d) lo=%v hi=%v\n", z.T0, z.T1, z.Lo, z.Hi)
	}
	fmt.Printf("run       %dD sizes=%v steps-run=%d algorithm=%s supervised=%v\n",
		b.Run.NDims, b.Run.Sizes, b.Run.StepsRun, b.Run.Algorithm, b.Run.Supervised)
	if r := b.Resume; r != nil {
		fmt.Printf("resume    durable checkpoint at step %d: %s\n", r.Step, r.Path)
	}
	if len(b.Profile) > 0 {
		var rep profile.Report
		if err := json.Unmarshal(b.Profile, &rep); err == nil {
			fmt.Printf("profile   %.3fs sampled CPU over %d windows, kernel %.1f%%, walker-overhead %.1f%%\n",
				rep.CPUSeconds, rep.Windows, 100*rep.KernelShare, 100*rep.WalkerShare)
			for i, ls := range rep.ByLabel["tenant"] {
				if i >= 3 || ls.Value == "" {
					continue
				}
				fmt.Printf("          tenant %-20s %.3fs (%.1f%%)\n", ls.Value, ls.CPUSeconds, 100*ls.Share)
			}
		}
	}
	fmt.Printf("host      %s %s/%s %d cpus pid=%d", b.Host.GoVersion, b.Host.OS, b.Host.Arch,
		b.Host.NumCPU, b.Host.PID)
	if b.Host.Commit != "" {
		fmt.Printf(" commit=%.12s", b.Host.Commit)
	}
	fmt.Println()
	fmt.Printf("events    %d in window (%d recorded, %d lanes)\n\n",
		len(b.Events), b.TotalEvents, b.Lanes)

	if len(b.Events) == 0 {
		fmt.Println("empty event window")
		return nil
	}

	timeline(b, *width)

	n := *tail
	if n > len(b.Events) {
		n = len(b.Events)
	}
	t0 := b.Events[0].TS
	fmt.Printf("\nfinal %d events:\n", n)
	for _, ev := range b.Events[len(b.Events)-n:] {
		fmt.Printf("  +%-12s w%d  %s\n", relTime(ev.TS-t0), ev.Worker, ev.Describe())
	}
	return nil
}

// kindGlyphs maps event kinds to timeline cell glyphs, ordered by severity:
// when a bucket holds several kinds the most severe one shows.
var kindGlyphs = []struct {
	kind  flight.Kind
	glyph byte
	label string
}{
	{flight.EvPanic, 'P', "panic"},
	{flight.EvFault, 'F', "faultpoint"},
	{flight.EvCancel, 'X', "cancel"},
	{flight.EvSup, 'S', "supervisor"},
	{flight.EvRunStart, 'r', "run-start"},
	{flight.EvRunEnd, 'e', "run-end"},
	{flight.EvCut, 'c', "cut"},
	{flight.EvBase, '.', "base"},
}

// timeline renders the merged window as one ASCII row per worker lane: time
// flows left to right across width buckets, each cell showing the most
// severe event kind that lane recorded in that slice of the window.
func timeline(b *flight.Bundle, width int) {
	if width < 8 {
		width = 8
	}
	t0 := b.Events[0].TS
	t1 := b.Events[len(b.Events)-1].TS
	span := t1 - t0
	if span <= 0 {
		span = 1
	}
	sev := make(map[flight.Kind]int, len(kindGlyphs))
	for i, kg := range kindGlyphs {
		sev[kg.kind] = len(kindGlyphs) - i
	}
	rows := make(map[int][]byte)
	counts := make(map[int]int)
	for _, ev := range b.Events {
		row, ok := rows[ev.Worker]
		if !ok {
			row = make([]byte, width)
			for i := range row {
				row[i] = ' '
			}
			rows[ev.Worker] = row
			row = rows[ev.Worker]
		}
		col := int((ev.TS - t0) * int64(width-1) / span)
		cur := row[col]
		best := -1
		for _, kg := range kindGlyphs {
			if kg.glyph == cur {
				best = sev[kg.kind]
			}
		}
		if sev[ev.Kind] > best {
			g := byte('?')
			for _, kg := range kindGlyphs {
				if kg.kind == ev.Kind {
					g = kg.glyph
				}
			}
			row[col] = g
		}
		counts[ev.Worker]++
	}
	lanes := make([]int, 0, len(rows))
	for w := range rows {
		lanes = append(lanes, w)
	}
	sort.Ints(lanes)
	fmt.Printf("timeline  %s per column\n", relTime(span/int64(width)))
	for _, w := range lanes {
		fmt.Printf("  w%-2d |%s| %d ev\n", w, rows[w], counts[w])
	}
	var legend []string
	for _, kg := range kindGlyphs {
		legend = append(legend, fmt.Sprintf("%c=%s", kg.glyph, kg.label))
	}
	fmt.Printf("       %s\n", strings.Join(legend, " "))
}

func relTime(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

// runDiff compares the failing tail of the window against the preceding
// healthy stretch. Supervised bundles split at supervisor segment-start
// markers: the last segment is the one that died, the one before it is the
// baseline. Unsupervised bundles split at the last run-start.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	b, path, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(b.Events) == 0 {
		return fmt.Errorf("%s: empty event window", path)
	}

	// Boundaries of the comparison slices: supervised segment-starts, or the
	// run-start markers of an unsupervised run.
	marker := func(ev flight.Event) bool {
		if b.Run.Supervised {
			return ev.Kind == flight.EvSup && ev.A0 == 0 // segment-start
		}
		return ev.Kind == flight.EvRunStart
	}
	var starts []int
	for i, ev := range b.Events {
		if marker(ev) {
			starts = append(starts, i)
		}
	}
	if len(starts) == 0 {
		starts = []int{0}
	}
	fail := b.Events[starts[len(starts)-1]:]
	var prev []flight.Event
	if len(starts) >= 2 {
		prev = b.Events[starts[len(starts)-2]:starts[len(starts)-1]]
	}

	fmt.Printf("bundle    %s\ncause     %s: %s\n", path, b.Cause.Kind, b.Cause.Error)
	if prev == nil {
		fmt.Println("\nno preceding segment in the window; showing the failing one only")
	} else {
		fmt.Printf("\nfailing segment: %d events over %s; preceding: %d events over %s\n",
			len(fail), relTime(spanOf(fail)), len(prev), relTime(spanOf(prev)))
	}
	fmt.Printf("\n%-12s %10s %10s %10s\n", "kind", "failing", "previous", "delta")
	pc, fc := kindTally(prev), kindTally(fail)
	for k := flight.Kind(0); int(k) < 8; k++ {
		if fc[k] == 0 && pc[k] == 0 {
			continue
		}
		fmt.Printf("%-12s %10d %10d %+10d\n", k.String(), fc[k], pc[k], fc[k]-pc[k])
	}
	fmt.Println("\nfailing segment's final events:")
	n := 10
	if n > len(fail) {
		n = len(fail)
	}
	t0 := fail[0].TS
	for _, ev := range fail[len(fail)-n:] {
		fmt.Printf("  +%-12s w%d  %s\n", relTime(ev.TS-t0), ev.Worker, ev.Describe())
	}
	return nil
}

func spanOf(evs []flight.Event) int64 {
	if len(evs) < 2 {
		return 0
	}
	return evs[len(evs)-1].TS - evs[0].TS
}

func kindTally(evs []flight.Event) map[flight.Kind]int {
	m := make(map[flight.Kind]int)
	for _, ev := range evs {
		m[ev.Kind]++
	}
	return m
}

// runCheckpoints renders durable spill journals. A directory target lists
// every entry, fully validating each (header and section CRCs, no trailing
// bytes) so an operator sees at a glance which checkpoint a resume would
// restore; a file target decodes one entry and prints its header and array
// sections. With no target it follows the newest bundle's resume hint.
func runCheckpoints(args []string) error {
	fs := flag.NewFlagSet("checkpoints", flag.ExitOnError)
	fs.Parse(args)
	target := fs.Arg(0)
	if target == "" {
		b, path, err := load("")
		if err != nil {
			return fmt.Errorf("no journal argument and no bundle to follow: %w", err)
		}
		if b.Resume == nil {
			return fmt.Errorf("%s has no resume hint; pass a journal directory or entry file", path)
		}
		fmt.Printf("journal   from resume hint of %s\n", filepath.Base(path))
		target = b.Resume.Dir
	}
	info, err := os.Stat(target)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return listJournal(target)
	}
	return inspectEntry(target)
}

func listJournal(dir string) error {
	j, err := wire.OpenJournal(dir, 0)
	if err != nil {
		return err
	}
	ents, err := j.Entries()
	if err != nil {
		return err
	}
	if len(ents) == 0 {
		fmt.Printf("no checkpoint entries in %s\n", dir)
		return nil
	}
	fmt.Printf("journal   %s (%d entries, newest last)\n", dir, len(ents))
	var newestGood string
	for _, e := range ents {
		status := "ok"
		if _, rerr := wire.ReadEntry(e.Path); rerr != nil {
			status = "CORRUPT: " + trimPrefixPath(rerr.Error(), e.Path)
		} else {
			newestGood = e.Path
		}
		fmt.Printf("  %-34s step=%-8d seq=%-6d %10d bytes  %s\n",
			filepath.Base(e.Path), e.Steps, e.Seq, e.Bytes, status)
	}
	if newestGood == "" {
		fmt.Println("no entry validates: a resume from this journal cold-starts")
	} else {
		fmt.Printf("resume would restore %s\n", filepath.Base(newestGood))
	}
	return nil
}

// trimPrefixPath strips the entry's own path from an error string so the
// listing stays one line per entry.
func trimPrefixPath(msg, path string) string {
	msg = strings.ReplaceAll(msg, path+": ", "")
	return strings.ReplaceAll(msg, path, "")
}

func inspectEntry(path string) error {
	cp, err := wire.ReadEntry(path)
	if err != nil {
		return err
	}
	fmt.Printf("entry     %s\n", path)
	fmt.Printf("schema    pochoir-checkpoint/v%d\n", cp.Version)
	fmt.Printf("steps     %d (resume cursor)\n", cp.StepsRun)
	fmt.Printf("grid      %dD sizes=%v\n", len(cp.Sizes), cp.Sizes)
	pts := 1
	for _, s := range cp.Sizes {
		pts *= s
	}
	for i, a := range cp.Arrays {
		kind, n, _ := wire.KindOf(a.Data)
		held := a.Held(pts)
		fmt.Printf("array %-3d %s, %d slots, live times %d..%d, holds %d slots: %d elements (%d points x %d), %d payload bytes\n",
			i, kind, a.Slots, cp.StepsRun, cp.StepsRun+a.Slots-2, held, n, pts, held, n*kind.Size())
	}
	fmt.Println("integrity ok (header and all section CRCs validate)")
	return nil
}

// runTrace exports the window through the trace's Chrome writer as one
// marker per event, the decoded description attached, on the track of its
// worker lane: lane wL renders as worker-(L+1), since the writer names
// track 0 after the job. A crash window thus drops into the same Perfetto
// UI as a job's /tracez trace.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "postmortem-trace.json", "output `FILE`")
	fs.Parse(args)
	b, path, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	tr := &trace.Trace{Spans: make([]trace.Span, 0, len(b.Events))}
	tr.ID, _ = trace.ParseTraceID(b.TraceID) // zero when the run had no trace
	for _, ev := range b.Events {
		tr.Spans = append(tr.Spans, trace.Span{
			Name: ev.Kind.String(), Lane: ev.Worker + 1, StartNS: ev.TS, EndNS: ev.TS,
			Attrs: []trace.Attr{{Key: "lane", Value: "w" + strconv.Itoa(ev.Worker)},
				{Key: "desc", Value: ev.Describe()}, {Key: "seq", Value: strconv.FormatUint(ev.Seq, 10)}},
		})
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	werr := trace.WriteChrome(f, tr)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote %d events from %s to %s\n", len(tr.Spans), filepath.Base(path), *out)
	return nil
}
