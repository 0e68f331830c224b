// Package qep models query execution plans (QEPs): trees of relational
// operators with cardinality estimates, as a database optimizer would emit.
// Plans serve two consumers in this repository:
//
//   - the workload simulator, which derives a query's resource profile
//     (sequential/random I/O, CPU work, working-set size) from its plan via
//     a cost model (package tpcds), and
//   - the Section-3 machine-learning baselines, which flatten plans into the
//     paper's feature vectors (one count + summed-cardinality pair per
//     distinct step, with per-table sequential scans as distinct features).
package qep

import (
	"fmt"
	"strings"
)

// Kind identifies a plan operator.
type Kind int

// Plan operator kinds. The set mirrors the PostgreSQL executor nodes that
// appear in TPC-DS plans.
const (
	SeqScan Kind = iota
	IndexScan
	HashJoin
	MergeJoin
	NestedLoop
	Sort
	HashAggregate
	GroupAggregate
	Materialize
	Limit
	WindowAgg
	numKinds
)

var kindNames = [...]string{
	SeqScan:        "SeqScan",
	IndexScan:      "IndexScan",
	HashJoin:       "HashJoin",
	MergeJoin:      "MergeJoin",
	NestedLoop:     "NestedLoop",
	Sort:           "Sort",
	HashAggregate:  "HashAggregate",
	GroupAggregate: "GroupAggregate",
	Materialize:    "Materialize",
	Limit:          "Limit",
	WindowAgg:      "WindowAgg",
}

// String returns the operator name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// NumKinds returns the number of distinct operator kinds.
func NumKinds() int { return int(numKinds) }

// IsScan reports whether the kind reads base-table data.
func (k Kind) IsScan() bool { return k == SeqScan || k == IndexScan }

// Node is one operator in a plan tree.
type Node struct {
	Kind     Kind
	Table    string  // base table for scan nodes, "" otherwise
	Rows     float64 // optimizer cardinality estimate (output rows)
	Width    int     // estimated bytes per output row
	Children []*Node
}

// Plan is a complete query execution plan for one template.
type Plan struct {
	Root *Node
}

// Walk visits every node in the plan in pre-order.
func (p *Plan) Walk(fn func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(p.Root)
}

// Nodes returns all nodes in pre-order.
func (p *Plan) Nodes() []*Node {
	var out []*Node
	p.Walk(func(n *Node) { out = append(out, n) })
	return out
}

// ScannedTables returns the set of tables read by sequential scans in the
// plan. CQI's shared-scan terms (Eqs. 2–3) are computed over this set.
func (p *Plan) ScannedTables() map[string]bool {
	out := make(map[string]bool)
	p.Walk(func(n *Node) {
		if n.Kind == SeqScan && n.Table != "" {
			out[n.Table] = true
		}
	})
	return out
}

// IndexedTables returns the set of tables accessed by index (random-I/O)
// scans.
func (p *Plan) IndexedTables() map[string]bool {
	out := make(map[string]bool)
	p.Walk(func(n *Node) {
		if n.Kind == IndexScan && n.Table != "" {
			out[n.Table] = true
		}
	})
	return out
}

// Steps returns the number of operators in the plan (the "query plan steps"
// feature of Table 3).
func (p *Plan) Steps() int {
	n := 0
	p.Walk(func(*Node) { n++ })
	return n
}

// RecordsAccessed sums the cardinality estimates of all scan nodes (the
// "records accessed" feature of Table 3).
func (p *Plan) RecordsAccessed() float64 {
	var s float64
	p.Walk(func(n *Node) {
		if n.Kind.IsScan() {
			s += n.Rows
		}
	})
	return s
}

// Validate checks structural invariants: non-negative cardinalities, scans
// are leaves and carry a table, non-scan interior nodes have children.
func (p *Plan) Validate() error {
	if p == nil || p.Root == nil {
		return fmt.Errorf("qep: plan has no root")
	}
	var err error
	p.Walk(func(n *Node) {
		if err != nil {
			return
		}
		if n.Rows < 0 {
			err = fmt.Errorf("qep: %s has negative cardinality %g", n.Kind, n.Rows)
			return
		}
		if n.Kind.IsScan() {
			if n.Table == "" {
				err = fmt.Errorf("qep: %s has no table", n.Kind)
				return
			}
			if len(n.Children) != 0 {
				err = fmt.Errorf("qep: scan of %s has children", n.Table)
				return
			}
			return
		}
		if len(n.Children) == 0 {
			err = fmt.Errorf("qep: interior node %s has no children", n.Kind)
		}
	})
	return err
}

// String renders the plan as an indented tree, EXPLAIN-style.
func (p *Plan) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if n == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		if n.Table != "" {
			fmt.Fprintf(&b, "%s on %s (rows=%.0f width=%d)\n", n.Kind, n.Table, n.Rows, n.Width)
		} else {
			fmt.Fprintf(&b, "%s (rows=%.0f width=%d)\n", n.Kind, n.Rows, n.Width)
		}
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}

// Convenience constructors keep the template catalog readable.

// Scan builds a sequential scan leaf.
func Scan(table string, rows float64, width int) *Node {
	return &Node{Kind: SeqScan, Table: table, Rows: rows, Width: width}
}

// Index builds an index scan leaf.
func Index(table string, rows float64, width int) *Node {
	return &Node{Kind: IndexScan, Table: table, Rows: rows, Width: width}
}

// Op builds an interior operator node.
func Op(kind Kind, rows float64, width int, children ...*Node) *Node {
	return &Node{Kind: kind, Rows: rows, Width: width, Children: children}
}
