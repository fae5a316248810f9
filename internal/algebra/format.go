package algebra

import (
	"fmt"
	"strings"
)

// Annotation carries per-node information to display alongside the plan
// tree — the executor fills in actual row counts, the cost model estimates.
type Annotation struct {
	// Rows is the number of rows the node produced (or is estimated to
	// produce); negative means unknown.
	Rows int64
	// Note is free-form extra text (e.g. "cost=12345").
	Note string
}

// Annotations maps plan nodes to their annotations.
type Annotations map[Node]Annotation

// Format pretty-prints a plan tree, one operator per line, children
// indented beneath their parent — the textual analogue of the paper's
// Figure 1 / Figure 8 plan diagrams. ann may be nil.
func Format(root Node, ann Annotations) string {
	var sb strings.Builder
	format(&sb, root, "", ann)
	return sb.String()
}

func format(sb *strings.Builder, n Node, indent string, ann Annotations) {
	sb.WriteString(indent)
	sb.WriteString(n.Describe())
	if ann != nil {
		if a, ok := ann[n]; ok {
			if a.Rows >= 0 {
				fmt.Fprintf(sb, "  -- %d rows", a.Rows)
			}
			if a.Note != "" {
				fmt.Fprintf(sb, " (%s)", a.Note)
			}
		}
	}
	sb.WriteByte('\n')
	for _, child := range n.Children() {
		format(sb, child, indent+"  ", ann)
	}
}

// Walk visits every node of the plan in pre-order.
func Walk(root Node, fn func(Node)) {
	if root == nil {
		return
	}
	fn(root)
	for _, c := range root.Children() {
		Walk(c, fn)
	}
}

// FindScans returns every Scan in the plan, in pre-order.
func FindScans(root Node) []*Scan {
	var out []*Scan
	Walk(root, func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = append(out, s)
		}
	})
	return out
}
