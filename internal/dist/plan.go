// Distributed plan representation. A distributed plan is an ordinary
// algebra tree extended with two leaf-capable node kinds:
//
//   - Leaf replaces a Scan: it reads the executing node's shard of a base
//     table. A subtree containing a Leaf is a *partitioned fragment*,
//     evaluated once per node.
//   - Exchange moves rows between sites and is the only boundary where
//     data crosses nodes: Gather ships every node's fragment output to the
//     coordinator, Broadcast replicates its input onto every node, Shuffle
//     repartitions rows by a hash of key columns.
//
// Neither holds rows. A fragment run binds them, per site, through
// exec.Options.Sources (sources in run.go): site i reads its own shard for a
// Leaf and the rows delivered to site i for an Exchange, and the ordinary
// executor runs the fragment unchanged — morsel scheduler, governor, metrics
// and all. Nothing in a compiled plan is written while it runs, so a
// fragment's sites run at once and several runs may share one *Plan.
package dist

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
)

// ExchangeKind selects an exchange's movement pattern.
type ExchangeKind uint8

// The exchange kinds.
const (
	// Gather ships every node's rows to the coordinator (node 0); output
	// is global, concatenated in node order.
	Gather ExchangeKind = iota
	// Broadcast replicates the full input onto every node; output is
	// partitioned (each node sees the whole set).
	Broadcast
	// Shuffle repartitions rows across nodes by the hash of Keys, the
	// same canonical-key hash the base-table partitioner uses; output is
	// partitioned by those keys.
	Shuffle
)

// String names the kind.
func (k ExchangeKind) String() string {
	switch k {
	case Gather:
		return "gather"
	case Broadcast:
		return "broadcast"
	case Shuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("ExchangeKind(%d)", uint8(k))
	}
}

// Exchange is the data-movement operator of a distributed plan. Its
// schema passes the input through unchanged; only row placement changes.
type Exchange struct {
	Kind ExchangeKind
	// Keys are the input-schema positions a Shuffle hashes on; nil for
	// the other kinds.
	Keys  []int
	Input algebra.Node
	// EstBytes is the compile-time estimate of bytes this exchange ships,
	// when the compiler had a cardinality estimator; 0 otherwise.
	EstBytes float64
}

// Schema passes the input schema through.
func (x *Exchange) Schema() algebra.Schema { return x.Input.Schema() }

// Children returns the single input.
func (x *Exchange) Children() []algebra.Node { return []algebra.Node{x.Input} }

// Describe renders the exchange and its shuffle keys.
func (x *Exchange) Describe() string {
	if x.Kind == Shuffle {
		keys := make([]string, len(x.Keys))
		s := x.Input.Schema()
		for i, k := range x.Keys {
			if k >= 0 && k < len(s) {
				keys[i] = s[k].ID.String()
			} else {
				keys[i] = fmt.Sprintf("#%d", k)
			}
		}
		return fmt.Sprintf("Exchange shuffle[%s]", strings.Join(keys, ", "))
	}
	return "Exchange " + x.Kind.String()
}

// ExchangeKindName implements plancheck.ExchangeNode.
func (x *Exchange) ExchangeKindName() string { return x.Kind.String() }

// ShuffleKeys implements plancheck.ExchangeNode.
func (x *Exchange) ShuffleKeys() []int { return x.Keys }

// Leaf is a partitioned fragment's base-table input: the executing node's
// shard of Table, which each per-node run binds to its own node's rows.
type Leaf struct {
	Table string
	Alias string
	Cols  algebra.Schema
}

// Schema returns the shard's columns (the scanned table's schema).
func (l *Leaf) Schema() algebra.Schema { return l.Cols }

// Children returns no inputs.
func (l *Leaf) Children() []algebra.Node { return nil }

// Describe names the sharded table.
func (l *Leaf) Describe() string {
	if l.Alias != "" && l.Alias != l.Table {
		return fmt.Sprintf("Shard %s AS %s", l.Table, l.Alias)
	}
	return "Shard " + l.Table
}

// ShardTable implements plancheck.ShardSource.
func (l *Leaf) ShardTable() string { return l.Table }
