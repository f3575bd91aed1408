// Package viz renders the analysis graphs of the pipeline — the Register
// Interference Graph, the Register Conflict Graph and the Same Displacement
// Graph — as Graphviz DOT documents, the visual vocabulary of the paper's
// Figures 2, 3, 5, 8 and 9. The output is deterministic (nodes and edges in
// sorted order) so it can be golden-tested and diffed.
package viz

import (
	"fmt"
	"strings"

	"prescount/internal/ir"
	"prescount/internal/rcg"
	"prescount/internal/rig"
	"prescount/internal/sdg"
)

// RIGDot renders an interference graph. If bankOf is non-nil, nodes are
// annotated (and colored) by their assigned bank, visualizing sub-RIG
// colorability as in Figure 3.
func RIGDot(g *rig.Graph, bankOf map[ir.Reg]int) string {
	var sb strings.Builder
	sb.WriteString("graph RIG {\n  node [shape=circle];\n")
	for _, n := range g.Nodes {
		label := n.String()
		attrs := fmt.Sprintf("label=%q", label)
		if bankOf != nil {
			if b, ok := bankOf[n]; ok {
				attrs += fmt.Sprintf(", xlabel=\"bank%d\", colorscheme=set19, style=filled, fillcolor=%d", b, b%9+1)
			}
		}
		fmt.Fprintf(&sb, "  %q [%s];\n", label, attrs)
	}
	for _, a := range g.Nodes {
		for _, b := range g.Neighbors(a) {
			if a < b {
				fmt.Fprintf(&sb, "  %q -- %q;\n", a.String(), b.String())
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// RCGDot renders a conflict graph with Cost_R node annotations and edge
// weights (the annotated costs of Figure 5b).
func RCGDot(g *rcg.Graph, bankOf map[ir.Reg]int) string {
	var sb strings.Builder
	sb.WriteString("graph RCG {\n  node [shape=circle];\n")
	for _, n := range g.Nodes {
		label := n.String()
		attrs := fmt.Sprintf("label=\"%s\\ncost=%.0f\"", label, g.Cost(n))
		if bankOf != nil {
			if b, ok := bankOf[n]; ok {
				attrs += fmt.Sprintf(", xlabel=\"bank%d\", colorscheme=set19, style=filled, fillcolor=%d", b, b%9+1)
			}
		}
		fmt.Fprintf(&sb, "  %q [%s];\n", label, attrs)
	}
	for _, a := range g.Nodes {
		for _, b := range g.Neighbors(a) {
			if a < b {
				attrs := fmt.Sprintf("label=\"%.0f\"", g.EdgeWeight(a, b))
				if bankOf != nil && bankOf[a] == bankOf[b] {
					attrs += ", color=red, penwidth=2" // residual conflict
				}
				fmt.Fprintf(&sb, "  %q -- %q [%s];\n", a.String(), b.String(), attrs)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// SDGDot renders the Same Displacement Graph with its subgroup groups as
// clusters (the grouping Figures 8 and 9 split).
func SDGDot(g *sdg.Graph) string {
	var sb strings.Builder
	sb.WriteString("digraph SDG {\n  node [shape=circle];\n")
	for gi, grp := range g.Groups() {
		fmt.Fprintf(&sb, "  subgraph cluster_%d {\n    label=\"group %d\";\n", gi, gi)
		for _, n := range grp {
			fmt.Fprintf(&sb, "    %q;\n", n.String())
		}
		sb.WriteString("  }\n")
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %q -> %q;\n", e.From.String(), e.To.String())
	}
	sb.WriteString("}\n")
	return sb.String()
}
