package compiler

import (
	"errors"
	"strings"
	"testing"
)

// FuzzDSL drives arbitrary byte strings through the full compiler front
// half — lexer, parser, checker, and both code-generator styles — and
// asserts the crash-freedom contract: malformed source must surface as an
// error, never a panic, and source that compiles must yield a coherent
// Checked (shape inferred, depth positive, every read resolvable).
//
// CI runs a short -fuzz smoke of this target; `go test` alone replays the
// seed corpus plus any crashers checked into testdata/fuzz.
func FuzzDSL(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound the fuzzer's own cost, but stay far enough above
		// MaxSourceBytes that the size cap itself is exercised.
		if len(src) > 2*MaxSourceBytes {
			t.Skip()
		}
		c, err := CompileSource(src)
		if len(src) > MaxSourceBytes {
			var le *LimitError
			if !errors.As(err, &le) {
				t.Fatalf("source of %d bytes not rejected by the size cap: err=%v", len(src), err)
			}
		}
		if err != nil {
			if c != nil {
				t.Fatalf("CompileSource returned both a Checked and an error: %v", err)
			}
			return
		}
		if c.Shape == nil || c.Depth < 1 {
			t.Fatalf("compiled without error but Checked is incoherent: shape=%v depth=%d", c.Shape, c.Depth)
		}
		for _, acc := range c.Reads {
			if c.Array(acc.Array) == nil {
				t.Fatalf("read of undeclared array %q survived checking", acc.Array)
			}
		}
		for _, style := range []Style{SplitPointer, SplitMacroShadow} {
			out, err := Codegen(c, "gen", style)
			if err != nil {
				t.Fatalf("Codegen(%v) failed on checked program: %v\nsource:\n%s", style, err, src)
			}
			if !strings.Contains(string(out), "package gen") {
				t.Fatalf("Codegen(%v) emitted no package clause", style)
			}
		}
	})
}

// fuzzSeeds is the seed corpus FuzzDSL and FuzzRowExec share.
func fuzzSeeds() []string {
	return []string{
		heatSrc,
		// 1D three-point average.
		"stencil s { dims: 1; array u; kernel { u(t+1,x) = (u(t,x-1)+u(t,x)+u(t,x+1))/3; } }",
		// Constant boundary, depth-2 access.
		"stencil w { dims: 1; param C = 2; array u; boundary u: constant 0;\n" +
			"  kernel { u(t+1,x) = C*u(t,x) - u(t-1,x); } }",
		// Structurally broken inputs: the fuzzer mutates from these too.
		"stencil s { dims: 1; array u; kernel { u(t+1,x) = u(t+2,x); } }",
		"stencil s { dims: 0; }",
		"stencil s { dims: 2; array u; kernel { u(t+1,x,y) = v(t,x,y); } }",
		"stencil",
		"# just a comment\n",
		"",
		// Front-door limit probes: an oversized source, a token flood, and
		// deep expression nesting must all surface as typed *LimitError —
		// never a stack overflow or a multi-second parse.
		"stencil s { dims: 1; array u; kernel { u(t+1,x) = u(t,x); } }" +
			strings.Repeat("# pad\n", MaxSourceBytes/6+1),
		"stencil s { dims: 1; array u; kernel { u(t+1,x) = 0" +
			strings.Repeat("+0", MaxTokens/2+64) + "; } }",
		"stencil s { dims: 1; array u; kernel { u(t+1,x) = " +
			strings.Repeat("(", 4*MaxExprDepth) + "u(t,x)" + strings.Repeat(")", 4*MaxExprDepth) + "; } }",
		"stencil s { dims: 1; array u; kernel { u(t+1,x) = " +
			strings.Repeat("-", 4*MaxExprDepth) + "u(t,x); } }",
	}
}
