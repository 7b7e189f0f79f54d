package compiler

import (
	goparser "go/parser"
	gotoken "go/token"
	"strings"
	"testing"
)

func compileHeat(t *testing.T) *Checked {
	t.Helper()
	c, err := CompileSource(heatSrc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCodegenParses: output of both styles must be valid Go.
func TestCodegenParses(t *testing.T) {
	c := compileHeat(t)
	for _, style := range []Style{SplitPointer, SplitMacroShadow} {
		code, err := Codegen(c, "gen", style)
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		fset := gotoken.NewFileSet()
		if _, err := goparser.ParseFile(fset, "gen.go", code, 0); err != nil {
			t.Fatalf("%v: generated code does not parse: %v\n%s", style, err, code)
		}
	}
}

func TestCodegenStructure(t *testing.T) {
	c := compileHeat(t)
	code, err := Codegen(c, "mypkg", SplitPointer)
	if err != nil {
		t.Fatal(err)
	}
	s := string(code)
	for _, frag := range []string{
		"package mypkg",
		"DO NOT EDIT",
		"heat2dParamCX = 0.125",
		"func Heat2dShape() *pochoir.Shape",
		"type Heat2d struct",
		"func NewHeat2d(sizes ...int)",
		"PeriodicBoundary",
		"func (s *Heat2d) PointKernel() pochoir.Kernel",
		"func (s *Heat2d) InteriorClone() pochoir.BaseFunc",
		"func (s *Heat2d) BoundaryClone() pochoir.BaseFunc",
		"(i0 % n0) + n0", // periodic wrap in the boundary accessor
		"func (s *Heat2d) BaseKernels() pochoir.BaseKernels",
		"func (s *Heat2d) Run(steps int) error",
		"u.Slot(t - 1)", // split-pointer reads raw slots
		"[i]",           // cursor indexing
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("generated code missing %q", frag)
		}
	}
}

func TestCodegenMacroShadowStructure(t *testing.T) {
	c := compileHeat(t)
	code, err := Codegen(c, "gen", SplitMacroShadow)
	if err != nil {
		t.Fatal(err)
	}
	s := string(code)
	if !strings.Contains(s, "split-macro-shadow") {
		t.Error("style marker missing")
	}
	// Macro-shadow indexes with full address arithmetic, not cursors.
	if strings.Contains(s, "c0[i]") {
		t.Error("macro-shadow output should not contain cursor slices")
	}
	if !strings.Contains(s, "for x1 := lo1; x1 < hi1; x1++") {
		t.Error("macro-shadow inner loop missing")
	}
}

// TestCodegen1D covers the degenerate dimension handling (no outer loops,
// base offset 0).
func TestCodegen1D(t *testing.T) {
	src := `stencil s1 { dims: 1; array u; boundary u: zero;
	  kernel { u(t+1,x) = 0.5*(u(t,x-1) + u(t,x+1)); } }`
	c, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, style := range []Style{SplitPointer, SplitMacroShadow} {
		code, err := Codegen(c, "gen", style)
		if err != nil {
			t.Fatalf("%v: %v\n%s", style, err, code)
		}
	}
}

// TestCodegen3DMultiArray covers multiple arrays, depth 2, and calls.
func TestCodegen3DMultiArray(t *testing.T) {
	src := `stencil mix { dims: 3; param A = 1.5; array p; array q;
	  boundary p: periodic; boundary q: clamp;
	  kernel {
	    p(t+1,x,y,z) = max(q(t,x-1,y,z), p(t-1,x,y,z)) + A;
	    q(t+1,x,y,z) = min(p(t,x,y+1,z-1), q(t,x,y,z));
	  } }`
	c, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth != 2 {
		t.Fatalf("depth %d", c.Depth)
	}
	for _, style := range []Style{SplitPointer, SplitMacroShadow} {
		code, err := Codegen(c, "gen", style)
		if err != nil {
			t.Fatalf("%v: %v\n%s", style, err, code)
		}
		s := string(code)
		if !strings.Contains(s, "dstp") || !strings.Contains(s, "dstq") {
			if style == SplitPointer {
				t.Errorf("%v: expected two destination slices", style)
			}
		}
	}
}

func TestCodegenPreservesNumberSpelling(t *testing.T) {
	src := `stencil n { dims: 1; array u;
	  kernel { u(t+1,x) = 0.1 * u(t,x) + 1e-3; } }`
	c, err := CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Codegen(c, "gen", SplitPointer)
	if err != nil {
		t.Fatal(err)
	}
	s := string(code)
	if !strings.Contains(s, "0.1") || !strings.Contains(s, "1e-3") {
		t.Error("numeric literals should keep their source spelling")
	}
}

// TestCodegenRegistersWrittenArraysOnly: a read-only coefficient array is
// declared, allocated and given its boundary, but not registered with the
// stencil, whose live-slot checkpoints would otherwise drop a slot of it
// that the next step reads.
func TestCodegenRegistersWrittenArraysOnly(t *testing.T) {
	c, err := CompileSource(`stencil coef { dims: 1; array u; array k; boundary u: periodic; boundary k: clamp;
kernel { u(t+1,x) = u(t,x) + k(t,x)*(u(t,x-1) - 2*u(t,x) + u(t,x+1)); } }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, style := range []Style{SplitPointer, SplitMacroShadow} {
		code, err := Codegen(c, "gen", style)
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		s := string(code)
		for _, frag := range []string{"RegisterArray(s.U)", "s.K, err = pochoir.NewArray", "s.K.RegisterBoundary("} {
			if !strings.Contains(s, frag) {
				t.Errorf("%v: generated code missing %q", style, frag)
			}
		}
		if strings.Contains(s, "RegisterArray(s.K)") {
			t.Errorf("%v: the read-only array k is registered with the stencil", style)
		}
	}
}
