package compiler

import (
	"bytes"
	"fmt"
	"go/format"
	"sort"
	"strconv"
	"strings"
)

// Style selects the loop-indexing optimization of §4.
type Style int

const (
	// SplitPointer generates per-term cursor slices advanced through the
	// unit-stride loop — the -split-pointer output of Fig. 12(c). It is
	// what the compiler prefers when it fully understands the kernel;
	// since our checker always understands the DSL, it is the default.
	SplitPointer Style = iota
	// SplitMacroShadow generates full address arithmetic on every access
	// with no boundary checking — the -split-macro-shadow output of
	// Fig. 12(b).
	SplitMacroShadow
)

func (s Style) String() string {
	if s == SplitMacroShadow {
		return "split-macro-shadow"
	}
	return "split-pointer"
}

// Codegen emits a Go source file implementing the checked stencil: the
// stencil object with its arrays and inferred shape, the checked point
// kernel (Phase-1 semantics and the boundary clone), and a specialized
// interior clone in the requested style, wired to the TRAP engine.
func Codegen(c *Checked, pkg string, style Style) ([]byte, error) {
	g := &gen{c: c, style: style}
	g.emit(pkg)
	src := g.buf.Bytes()
	out, err := format.Source(src)
	if err != nil {
		// A formatting failure is a compiler bug; return the raw source
		// to aid debugging.
		return src, fmt.Errorf("compiler: generated code does not parse: %v", err)
	}
	return out, nil
}

type gen struct {
	c     *Checked
	style Style
	buf   bytes.Buffer

	cursors map[string]string // accessKey -> cursor variable (split-pointer)
}

func (g *gen) pf(format string, args ...any) {
	fmt.Fprintf(&g.buf, format, args...)
}

// typeName is the exported Go name of the stencil type.
func (g *gen) typeName() string { return exportName(g.c.Prog.Name) }

// fieldName is the exported field name of an array.
func fieldName(arr string) string { return exportName(arr) }

func exportName(n string) string {
	return strings.ToUpper(n[:1]) + n[1:]
}

// constName is the Go constant holding a param value.
func (g *gen) constName(p string) string { return g.c.Prog.Name + "Param" + exportName(p) }

func (g *gen) emit(pkg string) {
	c := g.c
	prog := c.Prog
	d := prog.Dims
	tn := g.typeName()

	g.pf("// Code generated by pochoirgen (style: %s) from stencil %q. DO NOT EDIT.\n\n", g.style, prog.Name)
	g.pf("package %s\n\n", pkg)
	g.pf("import \"pochoir\"\n\n")

	if len(prog.Params) > 0 {
		g.pf("// Parameters of stencil %q.\nconst (\n", prog.Name)
		for _, p := range prog.Params {
			g.pf("\t%s = %s\n", g.constName(p.Name), strconv.FormatFloat(p.Value, 'g', -1, 64))
		}
		g.pf(")\n\n")
	}

	// Shape constructor.
	g.pf("// %sShape returns the stencil shape inferred from the kernel.\n", tn)
	g.pf("func %sShape() *pochoir.Shape {\n", tn)
	g.pf("\treturn pochoir.MustShape(%d, [][]int{\n", d)
	for _, cell := range c.Shape.Cells {
		g.pf("\t\t{%d", cell.DT)
		for _, v := range cell.DX {
			g.pf(", %d", v)
		}
		g.pf("},\n")
	}
	g.pf("\t})\n}\n\n")

	// Stencil struct + constructor.
	g.pf("// %s is the compiled stencil %q: %d spatial dimension(s), depth %d.\n", tn, prog.Name, d, c.Depth)
	g.pf("type %s struct {\n\tStencil *pochoir.Stencil[float64]\n", tn)
	for _, a := range prog.Arrays {
		g.pf("\t%s *pochoir.Array[float64]\n", fieldName(a.Name))
	}
	g.pf("}\n\n")

	g.pf("// New%s allocates the stencil's arrays with the given spatial sizes\n", tn)
	g.pf("// and registers the declared boundary conditions. Only the arrays the\n")
	g.pf("// kernel writes join the stencil: a read-only array is input, and the\n")
	g.pf("// stencil's checkpoints and restores leave it as the caller filled it.\n")
	g.pf("func New%s(sizes ...int) (*%s, error) {\n", tn, tn)
	g.pf("\tsh := %sShape()\n", tn)
	g.pf("\ts := &%s{Stencil: pochoir.New[float64](sh)}\n", tn)
	g.pf("\tvar err error\n")
	// As in Instance, only the arrays the kernel writes are run state: a
	// read-only array is an input whose every slot a checkpoint must leave
	// alone, so it is not registered.
	written := make(map[string]bool, len(prog.Kernel))
	for _, st := range prog.Kernel {
		written[st.LHS.Array] = true
	}
	for _, a := range prog.Arrays {
		fn := fieldName(a.Name)
		g.pf("\tif s.%s, err = pochoir.NewArray[float64](sh.Depth(), sizes...); err != nil {\n\t\treturn nil, err\n\t}\n", fn)
		switch a.Boundary {
		case BoundaryPeriodic:
			g.pf("\ts.%s.RegisterBoundary(pochoir.PeriodicBoundary[float64]())\n", fn)
		case BoundaryClamp:
			g.pf("\ts.%s.RegisterBoundary(pochoir.NeumannBoundary[float64]())\n", fn)
		case BoundaryConstant:
			g.pf("\ts.%s.RegisterBoundary(pochoir.ConstBoundary[float64](%s))\n", fn, strconv.FormatFloat(a.Constant, 'g', -1, 64))
		default:
			g.pf("\ts.%s.RegisterBoundary(pochoir.ZeroBoundary[float64]())\n", fn)
		}
		if written[a.Name] {
			g.pf("\tif err = s.Stencil.RegisterArray(s.%s); err != nil {\n\t\treturn nil, err\n\t}\n", fn)
		}
	}
	g.pf("\treturn s, nil\n}\n\n")

	g.emitPointKernel()
	g.emitInterior()
	g.emitBoundary()

	// Glue.
	g.pf("// BaseKernels pairs the two specialized clones (code cloning, §4 of\n")
	g.pf("// the Pochoir paper): the unchecked interior clone and the compiled\n")
	g.pf("// boundary clone that routes off-domain accesses per the declared\n")
	g.pf("// boundary conditions.\n")
	g.pf("func (s *%s) BaseKernels() pochoir.BaseKernels {\n", tn)
	g.pf("\treturn pochoir.BaseKernels{\n")
	g.pf("\t\tInterior: s.InteriorClone(),\n")
	g.pf("\t\tBoundary: s.BoundaryClone(),\n")
	g.pf("\t}\n}\n\n")
	g.pf("// Run executes the compiled stencil for steps time steps.\n")
	g.pf("func (s *%s) Run(steps int) error {\n", tn)
	g.pf("\treturn s.Stencil.RunSpecialized(steps, s.BaseKernels())\n}\n\n")
	g.pf("// RunInterpreted executes through the Phase-1 checked path; results are\n")
	g.pf("// identical to Run, only slower.\n")
	g.pf("func (s *%s) RunInterpreted(steps int) error {\n", tn)
	g.pf("\treturn s.Stencil.Run(steps, s.PointKernel())\n}\n")
}

// emitPointKernel writes the checked Phase-1 kernel.
func (g *gen) emitPointKernel() {
	c := g.c
	tn := g.typeName()
	g.pf("// PointKernel is the checked point kernel: the Phase-1 execution path\n")
	g.pf("// and the body of the boundary clone.\n")
	g.pf("func (s *%s) PointKernel() pochoir.Kernel {\n", tn)
	for _, a := range c.Prog.Arrays {
		g.pf("\t%s := s.%s\n", a.Name, fieldName(a.Name))
	}
	g.pf("\treturn func(t int, x []int) {\n")
	for _, st := range c.Prog.Kernel {
		g.pf("\t\t%s.Set(t%+d, %s", st.LHS.Array, st.LHS.DT, g.exprGo(st.RHS, g.accessChecked))
		for i := 0; i < c.Prog.Dims; i++ {
			g.pf(", x[%d]", i)
		}
		g.pf(")\n")
	}
	g.pf("\t}\n}\n\n")
}

// accessChecked renders an access through the checked Array API.
func (g *gen) accessChecked(a *Access) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s.Get(t%+d", a.Array, a.DT)
	for i, dx := range a.DX {
		if dx == 0 {
			fmt.Fprintf(&sb, ", x[%d]", i)
		} else {
			fmt.Fprintf(&sb, ", x[%d]%+d", i, dx)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// emitInterior writes the specialized interior clone in the chosen style.
func (g *gen) emitInterior() {
	c := g.c
	prog := c.Prog
	d := prog.Dims
	tn := g.typeName()

	g.pf("// InteriorClone is the specialized interior base-case kernel in the\n")
	g.pf("// %s style: it walks raw time slots with no boundary checks\n", g.style)
	g.pf("// and is only ever invoked on zoids whose accesses stay in-domain.\n")
	g.pf("func (s *%s) InteriorClone() pochoir.BaseFunc {\n", tn)
	for _, a := range prog.Arrays {
		g.pf("\t%s := s.%s\n", a.Name, fieldName(a.Name))
	}
	// Stride locals for dims 0..d-2 of each array used with nonzero
	// leading offsets (conservatively: all arrays).
	for _, a := range prog.Arrays {
		for j := 0; j < d-1; j++ {
			g.pf("\ts%s%d := %s.Stride(%d)\n", a.Name, j, a.Name, j)
		}
	}
	g.pf("\treturn func(z pochoir.Zoid) {\n")
	for j := 0; j < d; j++ {
		g.pf("\t\tlo%d, hi%d := z.Lo[%d], z.Hi[%d]\n", j, j, j, j)
	}
	g.pf("\t\tfor t := z.T0; t < z.T1; t++ {\n")
	// Slot locals: the write slot per written array and one read slot per
	// (array, relative dt).
	written := map[string]bool{}
	for _, st := range prog.Kernel {
		if !written[st.LHS.Array] {
			g.pf("\t\t\tw%s := %s.Slot(t)\n", st.LHS.Array, st.LHS.Array)
			written[st.LHS.Array] = true
		}
	}
	slotSet := map[string]bool{}
	var slotNames []string
	for _, a := range c.Reads {
		rel := a.DT - c.HomeDT // < 0
		name := fmt.Sprintf("r%s%d", a.Array, -rel)
		if !slotSet[name] {
			slotSet[name] = true
			slotNames = append(slotNames, fmt.Sprintf("\t\t\t%s := %s.Slot(t - %d)\n", name, a.Array, -rel))
		}
	}
	sort.Strings(slotNames)
	for _, s := range slotNames {
		g.pf("%s", s)
	}

	// Spatial loop nest over dims 0..d-2.
	indent := "\t\t\t"
	for j := 0; j < d-1; j++ {
		g.pf("%sfor x%d := lo%d; x%d < hi%d; x%d++ {\n", indent, j, j, j, j, j)
		indent += "\t"
	}
	// Per-array base offset into a slot (dims 0..d-2).
	if d > 1 {
		for _, a := range prog.Arrays {
			g.pf("%sbase%s := ", indent, a.Name)
			for j := 0; j < d-1; j++ {
				if j > 0 {
					g.pf(" + ")
				}
				g.pf("x%d*s%s%d", j, a.Name, j)
			}
			g.pf("\n")
		}
	} else {
		for _, a := range prog.Arrays {
			g.pf("%sbase%s := 0\n", indent, a.Name)
		}
	}

	if g.style == SplitPointer {
		g.emitSplitPointerInner(indent)
	} else {
		g.emitMacroShadowInner(indent)
	}

	for j := d - 2; j >= 0; j-- {
		indent = indent[:len(indent)-1]
		g.pf("%s}\n", indent)
	}
	for j := 0; j < d; j++ {
		g.pf("\t\t\tlo%d += z.DLo[%d]\n\t\t\thi%d += z.DHi[%d]\n", j, j, j, j)
	}
	g.pf("\t\t}\n\t}\n}\n\n")
}

// cursorOffset renders the constant linear offset of a read access
// relative to base+lo_{d-1} in its array's layout.
func (g *gen) cursorOffset(a *Access) string {
	d := len(a.DX)
	var terms []string
	for j := 0; j < d-1; j++ {
		if a.DX[j] != 0 {
			terms = append(terms, fmt.Sprintf("(%d)*s%s%d", a.DX[j], a.Array, j))
		}
	}
	if a.DX[d-1] != 0 {
		terms = append(terms, fmt.Sprintf("(%d)", a.DX[d-1]))
	}
	if len(terms) == 0 {
		return ""
	}
	return " + " + strings.Join(terms, " + ")
}

// emitSplitPointerInner writes the Fig. 12(c)-style inner loop: one cursor
// slice per distinct read access, all advanced by the loop index.
func (g *gen) emitSplitPointerInner(indent string) {
	c := g.c
	d := c.Prog.Dims
	last := d - 1
	// Destination slices, one per written array.
	for _, st := range c.Prog.Kernel {
		g.pf("%sdst%s := w%s[base%s+lo%d : base%s+hi%d]\n",
			indent, st.LHS.Array, st.LHS.Array, st.LHS.Array, last, st.LHS.Array, last)
	}
	// Cursor slices.
	g.cursors = map[string]string{}
	for k, a := range c.Reads {
		rel := a.DT - c.HomeDT
		cur := fmt.Sprintf("c%d", k)
		g.cursors[accessKey(&a)] = cur
		g.pf("%s%s := r%s%d[base%s+lo%d%s:]\n",
			indent, cur, a.Array, -rel, a.Array, last, g.cursorOffset(&a))
	}
	g.pf("%sfor i := range dst%s {\n", indent, c.Prog.Kernel[0].LHS.Array)
	for _, st := range c.Prog.Kernel {
		g.pf("%s\tdst%s[i] = %s\n", indent, st.LHS.Array, g.exprGo(st.RHS, g.accessCursor))
	}
	g.pf("%s}\n", indent)
}

func (g *gen) accessCursor(a *Access) string {
	return g.cursors[accessKey(a)] + "[i]"
}

// emitMacroShadowInner writes the Fig. 12(b)-style inner loop: full
// address arithmetic on every access, no checks.
func (g *gen) emitMacroShadowInner(indent string) {
	c := g.c
	d := c.Prog.Dims
	last := d - 1
	g.pf("%sfor x%d := lo%d; x%d < hi%d; x%d++ {\n", indent, last, last, last, last, last)
	for _, st := range c.Prog.Kernel {
		g.pf("%s\tw%s[base%s+x%d] = %s\n",
			indent, st.LHS.Array, st.LHS.Array, last, g.exprGo(st.RHS, g.accessShadow))
	}
	g.pf("%s}\n", indent)
}

func (g *gen) accessShadow(a *Access) string {
	c := g.c
	d := len(a.DX)
	rel := a.DT - c.HomeDT
	var sb strings.Builder
	fmt.Fprintf(&sb, "r%s%d[base%s", a.Array, -rel, a.Array)
	for j := 0; j < d-1; j++ {
		if a.DX[j] != 0 {
			fmt.Fprintf(&sb, "+(%d)*s%s%d", a.DX[j], a.Array, j)
		}
	}
	if a.DX[d-1] == 0 {
		fmt.Fprintf(&sb, "+x%d]", d-1)
	} else {
		fmt.Fprintf(&sb, "+x%d%+d]", d-1, a.DX[d-1])
	}
	return sb.String()
}

// emitBoundary writes the specialized boundary clone: virtual coordinates
// are reduced modulo the grid and each array's accesses go through a small
// compiled accessor implementing its declared boundary condition. This is
// the second half of the §4 code-cloning optimization — the clone is
// slower than the interior clone but far faster than the interpreted
// checked path.
func (g *gen) emitBoundary() {
	c := g.c
	prog := c.Prog
	d := prog.Dims
	tn := g.typeName()

	g.pf("// BoundaryClone is the specialized boundary base-case kernel: virtual\n")
	g.pf("// coordinates are reduced modulo the grid extents and every access is\n")
	g.pf("// routed per the declared boundary condition, in compiled code.\n")
	g.pf("func (s *%s) BoundaryClone() pochoir.BaseFunc {\n", tn)
	for _, a := range prog.Arrays {
		g.pf("\t%s := s.%s\n", a.Name, fieldName(a.Name))
	}
	for _, a := range prog.Arrays {
		for j := 0; j < d-1; j++ {
			g.pf("\ts%s%d := %s.Stride(%d)\n", a.Name, j, a.Name, j)
		}
	}
	first := prog.Arrays[0].Name
	for j := 0; j < d; j++ {
		g.pf("\tn%d := %s.Size(%d)\n", j, first, j)
	}
	// Per-array boundary accessors over a read slot.
	for _, a := range prog.Arrays {
		g.pf("\tget%s := func(r []float64", a.Name)
		for j := 0; j < d; j++ {
			g.pf(", i%d int", j)
		}
		g.pf(") float64 {\n")
		switch a.Boundary {
		case BoundaryConstant:
			g.pf("\t\tif %s {\n\t\t\treturn %s\n\t\t}\n", g.oobCond(d), strconv.FormatFloat(a.Constant, 'g', -1, 64))
		case BoundaryZero:
			g.pf("\t\tif %s {\n\t\t\treturn 0\n\t\t}\n", g.oobCond(d))
		case BoundaryPeriodic:
			for j := 0; j < d; j++ {
				g.pf("\t\ti%d = ((i%d %% n%d) + n%d) %% n%d\n", j, j, j, j, j)
			}
		case BoundaryClamp:
			for j := 0; j < d; j++ {
				g.pf("\t\tif i%d < 0 {\n\t\t\ti%d = 0\n\t\t} else if i%d >= n%d {\n\t\t\ti%d = n%d - 1\n\t\t}\n", j, j, j, j, j, j)
			}
		}
		g.pf("\t\treturn r[%s]\n\t}\n", g.trueIndex(a.Name, d, "i"))
	}

	g.pf("\treturn func(z pochoir.Zoid) {\n")
	for j := 0; j < d; j++ {
		g.pf("\t\tlo%d, hi%d := z.Lo[%d], z.Hi[%d]\n", j, j, j, j)
	}
	g.pf("\t\tfor t := z.T0; t < z.T1; t++ {\n")
	written := map[string]bool{}
	for _, st := range prog.Kernel {
		if !written[st.LHS.Array] {
			g.pf("\t\t\tw%s := %s.Slot(t)\n", st.LHS.Array, st.LHS.Array)
			written[st.LHS.Array] = true
		}
	}
	slotSet := map[string]bool{}
	var slotNames []string
	for _, a := range c.Reads {
		rel := a.DT - c.HomeDT
		name := fmt.Sprintf("r%s%d", a.Array, -rel)
		if !slotSet[name] {
			slotSet[name] = true
			slotNames = append(slotNames, fmt.Sprintf("\t\t\t%s := %s.Slot(t - %d)\n", name, a.Array, -rel))
		}
	}
	sort.Strings(slotNames)
	for _, s := range slotNames {
		g.pf("%s", s)
	}
	indent := "\t\t\t"
	for j := 0; j < d; j++ {
		g.pf("%sfor x%d := lo%d; x%d < hi%d; x%d++ {\n", indent, j, j, j, j, j)
		indent += "\t"
		g.pf("%st%d := ((x%d %% n%d) + n%d) %% n%d\n", indent, j, j, j, j, j)
	}
	for _, st := range prog.Kernel {
		g.pf("%sw%s[%s] = %s\n", indent, st.LHS.Array,
			g.trueIndex(st.LHS.Array, d, "t"), g.exprGo(st.RHS, g.accessBoundary))
	}
	for j := d - 1; j >= 0; j-- {
		indent = indent[:len(indent)-1]
		g.pf("%s}\n", indent)
	}
	for j := 0; j < d; j++ {
		g.pf("\t\t\tlo%d += z.DLo[%d]\n\t\t\thi%d += z.DHi[%d]\n", j, j, j, j)
	}
	g.pf("\t\t}\n\t}\n}\n\n")
}

// oobCond renders the out-of-domain test over indices i0..i_{d-1}.
func (g *gen) oobCond(d int) string {
	var terms []string
	for j := 0; j < d; j++ {
		terms = append(terms, fmt.Sprintf("i%d < 0 || i%d >= n%d", j, j, j))
	}
	return strings.Join(terms, " || ")
}

// trueIndex renders the linear offset of true coordinates prefix0..prefix_{d-1}
// in the array's layout.
func (g *gen) trueIndex(arr string, d int, prefix string) string {
	var terms []string
	for j := 0; j < d-1; j++ {
		terms = append(terms, fmt.Sprintf("%s%d*s%s%d", prefix, j, arr, j))
	}
	terms = append(terms, fmt.Sprintf("%s%d", prefix, d-1))
	return strings.Join(terms, "+")
}

// accessBoundary renders a read through the array's boundary accessor at
// true coordinates t0.. plus the access offsets.
func (g *gen) accessBoundary(a *Access) string {
	var sb strings.Builder
	rel := a.DT - g.c.HomeDT
	fmt.Fprintf(&sb, "get%s(r%s%d", a.Array, a.Array, -rel)
	for j, dx := range a.DX {
		if dx == 0 {
			fmt.Fprintf(&sb, ", t%d", j)
		} else {
			fmt.Fprintf(&sb, ", t%d%+d", j, dx)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// exprGo renders an expression as Go source, using the supplied renderer
// for array accesses.
func (g *gen) exprGo(e Expr, access func(*Access) string) string {
	switch n := e.(type) {
	case *Num:
		return n.Text
	case *Ref:
		return g.constName(n.Name)
	case *Access:
		return access(n)
	case *Unary:
		return "(-" + g.exprGo(n.X, access) + ")"
	case *Binary:
		return "(" + g.exprGo(n.L, access) + " " + string(n.Op) + " " + g.exprGo(n.R, access) + ")"
	case *Call:
		return n.Name + "(" + g.exprGo(n.Args[0], access) + ", " + g.exprGo(n.Args[1], access) + ")"
	}
	panic(fmt.Sprintf("compiler: unknown expression node %T", e))
}
