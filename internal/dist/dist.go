// Package dist is a simulated multi-node execution topology for the
// engine: base tables are hash-partitioned into shards spread across N
// nodes, plans gain Exchange operators (gather / broadcast / shuffle)
// whose row movement flows through byte-accounted Links, and grouping over
// partitioned data can run either lazily (ship every row to the
// coordinator, then aggregate) or eagerly (pre-aggregate per node with the
// partial-aggregate algebra, ship one row per node-local group, merge at
// the coordinator).
//
// This is the execution-side reproduction of Yan & Larson's Section 7
// argument: in a distributed query the dominant cost is communication, and
// performing the group-by before shipping R1 reduces the bytes on the wire
// from |σ[C1]R1| rows to one row per GA1+ group. The same Accumulator.Merge
// algebra that powers parallel partial aggregation supplies the
// partial/final split, so the eager distributed plan is a theorem-backed
// rearrangement, not a new aggregation semantics.
//
// The cluster is simulated in one process: each node holds its shard rows,
// and fragments execute through the ordinary executor (package exec) — one
// governed exec.Run per (fragment, node), with morsel parallelism,
// cancellation, memory budgets and fault injection all inherited from the
// session's exec.Options. The sites are simulated in time as well as in
// bytes: a fragment's per-node runs execute at once, min(nodes, GOMAXPROCS)
// of them, over a compiled plan that is read-only while it runs — one after
// another only for a Serial query, under a memory budget or under a fault
// injector (sitesAtOnce in run.go has the rule and its reasons). Results
// do not depend on it: every site's output is kept under its node index and
// all row movement happens on the runner's own goroutine, in node order.
// Links account every cross-node row in canonical encoded bytes and drive
// the link-level fault kinds (LinkDelay/LinkDrop).
package dist

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// Partition routes one row to a partition in [0, n): the FNV-32a hash of
// the row's canonical grouping key over cols, modulo n. Because the key
// encoding is the same canonical form grouping uses (value.GroupKey), two
// rows that are one group under SQL2's "NULL equals NULL" grouping
// semantics always land on the same partition — in particular every
// all-NULL key routes to one node, which is what makes shuffled two-phase
// grouping legal.
func Partition(r value.Row, cols []int, n int) int {
	if n <= 1 {
		return 0
	}
	var scratch [64]byte // the key is hashed, never kept: no string is made
	key := scratch[:0]
	for _, c := range cols {
		key = value.AppendGroupKey(key, r[c])
	}
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(n))
}

// RowBytes is the accounted wire size of one row: the length of its
// canonical self-delimiting encoding over all columns. Links charge it per
// shipped row.
func RowBytes(r value.Row) int64 {
	var scratch [128]byte // the encoding is measured, never kept: no string is made
	enc := scratch[:0]
	for _, v := range r {
		enc = value.AppendGroupKey(enc, v)
	}
	return int64(len(enc))
}

// Node is one member of the simulated cluster: an id plus the node-local
// shard of every base table. Shards are immutable after cluster
// construction; all cross-node row movement goes through Link (the
// distlink analyzer in internal/lint enforces that only Node/Cluster
// methods touch the shard map).
type Node struct {
	id     int
	shards map[string][]value.Row
}

// ID returns the node's index in the cluster.
func (n *Node) ID() int { return n.id }

// TableRows returns the node-local shard of a base table (nil when the
// table has no rows on this node). The returned slice is shared and must
// be treated as read-only.
func (n *Node) TableRows(table string) []value.Row { return n.shards[table] }

// add appends a row to the node's shard of table.
func (n *Node) add(table string, r value.Row) {
	n.shards[table] = append(n.shards[table], r)
}

// Link is the byte-accounted connection from one node to another. All
// cross-node data movement in the distributed runtime flows through Ship;
// the counters make the Section 7 communication term measurable rather
// than estimated.
type Link struct {
	src, dst int
	rows     atomic.Int64
	bytes    atomic.Int64
}

// Rows returns the total rows shipped over the link.
func (l *Link) Rows() int64 { return l.rows.Load() }

// Bytes returns the total canonical-encoded bytes shipped over the link.
func (l *Link) Bytes() int64 { return l.bytes.Load() }

// Ship moves rows over the link, charging the byte accounting and
// advancing the fault injector's link path once per row plus once for the
// delivery ack (LinkDrop fails the shipment with a typed *fault.Error;
// LinkDelay waits on the injected clock). It returns the shipped rows
// (movement is simulated — the slice is shared) and the bytes charged.
// Ship is the single-attempt surface; the runner's fault-tolerant path
// calls shipAttempt directly so it can distinguish a lost payload from a
// lost ack.
func (l *Link) Ship(rows []value.Row, inj *fault.Injector) ([]value.Row, int64, error) {
	bytes, _, err := l.shipAttempt(rows, inj)
	if err != nil {
		return nil, 0, err
	}
	return rows, bytes, nil
}

// shipAttempt performs one delivery attempt of a shipment. It advances
// the injector's link path once per payload row, then once more for the
// receiver's ack. The two failure points differ in a way the retry layer
// must see: a fault on a payload tick means the rows never arrived
// (delivered=false — a retry is safe), while a fault on the ack tick
// means the rows arrived but the sender observes a failure
// (delivered=true with a non-nil error — a blind retry would deliver the
// payload twice, which is exactly what receiver-side dedup exists for).
// Row and byte accounting is charged whenever the payload crosses,
// duplicates included: the wire carried them.
func (l *Link) shipAttempt(rows []value.Row, inj *fault.Injector) (bytes int64, delivered bool, err error) {
	for _, r := range rows {
		if err := inj.LinkStep(); err != nil {
			return 0, false, fmt.Errorf("dist: link %d→%d: %w", l.src, l.dst, err)
		}
		bytes += RowBytes(r)
	}
	l.rows.Add(int64(len(rows)))
	l.bytes.Add(bytes)
	if err := inj.LinkStep(); err != nil {
		return bytes, true, fmt.Errorf("dist: link %d→%d: ack lost: %w", l.src, l.dst, err)
	}
	return bytes, true, nil
}

// Cluster is the node registry: N nodes, each holding its table shards,
// plus one Link per ordered node pair. Node 0 is the coordinator — the
// join site of the paper's Section 7 — where gathered rows land and final
// results materialize.
type Cluster struct {
	nodes  []*Node
	links  [][]*Link
	shards int
}

// NewCluster hash-partitions every base table of the store across n nodes
// using s shards (shard k lives on node k mod n); s < 1 is the default,
// defaultShards(n). Each table partitions on
// its primary-key columns when it has a primary key, else on all columns;
// either way the routing is a pure function of the row's canonical key
// encoding, so repartitioning the same store is deterministic run to run.
func NewCluster(store *storage.Store, n, s int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dist: cluster needs at least 1 node, got %d", n)
	}
	if s < 1 {
		s = defaultShards(n)
	}
	if s&(s-1) != 0 {
		return nil, fmt.Errorf("dist: shard count must be a power of two, got %d", s)
	}
	c := &Cluster{shards: s}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &Node{id: i, shards: make(map[string][]value.Row)})
	}
	c.links = make([][]*Link, n)
	for i := range c.links {
		c.links[i] = make([]*Link, n)
		for j := range c.links[i] {
			c.links[i][j] = &Link{src: i, dst: j}
		}
	}
	for _, name := range store.Catalog().TableNames() {
		tab, err := store.Table(name)
		if err != nil {
			return nil, err
		}
		cols := partitionCols(tab.Def)
		for _, r := range tab.Rows() {
			shard := Partition(r, cols, s)
			c.nodes[shard%n].add(name, r)
		}
	}
	return c, nil
}

// defaultShards is the shard count of a cluster of n nodes when none is
// given: n when it is a power of two, one shard per node; else the smallest
// power of two of at least 8n. The k mod n placement then gives every node
// at least eight whole shards and none more than one above another — within
// an eighth of an even share (at 3 nodes, 11, 11 and 10 of 32) — where n
// rounded up would give some nodes two shards and the rest one.
func defaultShards(n int) int {
	if n&(n-1) == 0 {
		return n
	}
	return 1 << bits.Len(uint(8*n-1))
}

// partitionCols picks the column positions a table partitions on: the
// primary key when one is declared, else every column.
func partitionCols(def *schema.Table) []int {
	for _, k := range def.Keys {
		if !k.Primary {
			continue
		}
		cols := make([]int, 0, len(k.Columns))
		for _, name := range k.Columns {
			if idx := def.ColumnIndex(name); idx >= 0 {
				cols = append(cols, idx)
			}
		}
		if len(cols) > 0 {
			return cols
		}
	}
	cols := make([]int, len(def.Columns))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Shards returns the configured shard count.
func (c *Cluster) Shards() int { return c.shards }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Link returns the link from src to dst.
func (c *Cluster) Link(src, dst int) *Link { return c.links[src][dst] }

// TotalBytes sums the bytes shipped over every cross-node link for the
// cluster's lifetime.
func (c *Cluster) TotalBytes() int64 {
	var total int64
	for i := range c.links {
		for j, l := range c.links[i] {
			if i != j {
				total += l.Bytes()
			}
		}
	}
	return total
}
