// Package specs embeds the example specifications, for harnesses that must
// not depend on the directory they are run from.
package specs

import _ "embed"

// Heat2D is heat2d.pch, the paper's Fig. 6 program.
//
//go:embed heat2d.pch
var Heat2D string
