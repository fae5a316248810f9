// Fixture for the distlink analyzer.
package distlink

type Row []int

// Node mirrors dist.Node: per-node shard storage.
type Node struct {
	id     int
	shards map[string][]Row
}

// Node's own methods manage its shard map.
func (n *Node) TableRows(table string) []Row { return n.shards[table] }

func (n *Node) add(table string, r Row) {
	n.shards[table] = append(n.shards[table], r)
}

// Link mirrors dist.Link: the sanctioned movement path.
type Link struct{ bytes int64 }

func (l *Link) Ship(rows []Row) []Row {
	l.bytes += int64(len(rows))
	return rows
}

// Cluster mirrors dist.Cluster. Its shards field is the shard *count* — a
// same-named field on a different type, which must not be flagged.
type Cluster struct {
	nodes  []*Node
	shards int
	links  [][]*Link
}

func (c *Cluster) Shards() int { return c.shards }

// Cluster methods populate node storage during partitioning.
func (c *Cluster) partition(table string, rows []Row) {
	for i, r := range rows {
		n := c.nodes[i%len(c.nodes)]
		n.shards[table] = append(n.shards[table], r)
	}
}

// The sanctioned pattern: read through TableRows, move through Ship.
func gatherGood(c *Cluster) []Row {
	var out []Row
	for i, n := range c.nodes {
		out = append(out, c.links[i][0].Ship(n.TableRows("T"))...)
	}
	return out
}

// Reaching into another node's shard map from free functions bypasses the
// link accounting.
func gatherBad(c *Cluster) []Row {
	var out []Row
	for _, n := range c.nodes {
		out = append(out, n.shards["T"]...) // want "outside the Link abstraction"
	}
	return out
}

func shuffleBad(src, dst *Node) {
	rows := src.shards["T"] // want "outside the Link abstraction"
	dst.shards["T"] = rows  // want "outside the Link abstraction"
}

// A site worker — a function literal a pool runs once per node — is no
// exception: with the sites running at once it is the likeliest place for a
// shortcut past TableRows.
func workerBad(c *Cluster, forEach func(n int, fn func(i int))) [][]Row {
	parts := make([][]Row, len(c.nodes))
	forEach(len(c.nodes), func(i int) {
		parts[i] = c.nodes[i].shards["T"] // want "outside the Link abstraction"
	})
	return parts
}

func byValueBad(n Node) int {
	return len(n.shards) // want "outside the Link abstraction"
}

// Unrelated selectors named shards on other types stay quiet.
type registry struct{ shards []string }

func unrelated(r *registry) int { return len(r.shards) }
