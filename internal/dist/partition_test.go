package dist_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/exec"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestPartitionDeterminism: routing is a pure function of the row's key
// values — same row, same columns, same node, run after run, regardless of
// the Value instances holding the data.
func TestPartitionDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		row := randomRow(r, 1+r.Intn(5))
		cols := someCols(r, len(row))
		n := 1 + r.Intn(16)
		first := dist.Partition(row, cols, n)
		// A structurally equal copy routes identically.
		copyRow := make(value.Row, len(row))
		copy(copyRow, row)
		for trial := 0; trial < 3; trial++ {
			if got := dist.Partition(copyRow, cols, n); got != first {
				t.Fatalf("row %v cols %v n=%d: partition %d then %d", row, cols, n, first, got)
			}
		}
		if first < 0 || first >= n {
			t.Fatalf("partition %d out of range [0,%d)", first, n)
		}
	}
}

// TestPartitionNullRouting: SQL2 groups NULLs together ("NULL equals NULL"
// grouping semantics), so every row whose grouping key is all-NULL must
// land on one node — otherwise shuffled two-phase grouping would emit the
// NULL group twice.
func TestPartitionNullRouting(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		want := -1
		for i := 0; i < 50; i++ {
			// NULL key columns, varying non-key payload.
			row := value.Row{value.Null, value.NewInt(int64(i)), value.Null}
			got := dist.Partition(row, []int{0, 2}, n)
			if want == -1 {
				want = got
			}
			if got != want {
				t.Fatalf("n=%d: all-NULL keys split across nodes %d and %d", n, want, got)
			}
		}
	}
}

// TestPartitionIntFloatFold: the canonical key encoding folds integral
// floats onto ints (5 and 5.0 are one group under =ⁿ), so they must route
// to the same partition too.
func TestPartitionIntFloatFold(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		a := dist.Partition(value.Row{value.NewInt(5)}, []int{0}, n)
		b := dist.Partition(value.Row{value.NewFloat(5.0)}, []int{0}, n)
		if a != b {
			t.Fatalf("n=%d: 5 routes to %d but 5.0 routes to %d", n, a, b)
		}
	}
}

// FuzzRepartitionPermutation: splitting rows into n partitions is a
// permutation of the input — every row lands in exactly one bucket, no row
// is dropped, duplicated, or mutated.
func FuzzRepartitionPermutation(f *testing.F) {
	f.Add(int64(1), 3, 10)
	f.Add(int64(99), 1, 0)
	f.Add(int64(7), 8, 200)
	f.Fuzz(func(t *testing.T, seed int64, n, count int) {
		if n < 1 || n > 64 || count < 0 || count > 2000 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		width := 1 + r.Intn(4)
		cols := someCols(r, width)
		rows := make([]value.Row, count)
		for i := range rows {
			rows[i] = randomRow(r, width)
		}
		buckets := make([][]value.Row, n)
		for _, row := range rows {
			p := dist.Partition(row, cols, n)
			if p < 0 || p >= n {
				t.Fatalf("partition %d out of range [0,%d)", p, n)
			}
			buckets[p] = append(buckets[p], row)
		}
		var merged []value.Row
		for _, b := range buckets {
			merged = append(merged, b...)
		}
		if len(merged) != len(rows) {
			t.Fatalf("repartition changed cardinality: %d in, %d out", len(rows), len(merged))
		}
		if !sameMultiset(rows, merged) {
			t.Fatalf("repartition is not a permutation of its input")
		}
	})
}

// TestClusterShardingIsPartition: a cluster's shards of a table are a
// permutation of the store's rows, and rebuilding the cluster reproduces
// the same assignment.
func TestClusterShardingIsPartition(t *testing.T) {
	store := exampleStore(t, 137, 7)
	for _, n := range []int{1, 2, 4, 8} {
		c1, err := dist.NewCluster(store, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := dist.NewCluster(store, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range []string{"Employee", "Department"} {
			var all []value.Row
			for i := 0; i < n; i++ {
				rows1 := c1.Node(i).TableRows(table)
				rows2 := c2.Node(i).TableRows(table)
				if fmt.Sprint(rows1) != fmt.Sprint(rows2) {
					t.Fatalf("n=%d node %d %s: two builds shard differently", n, i, table)
				}
				all = append(all, rows1...)
			}
			tab, err := store.Table(table)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMultiset(tab.Rows(), all) {
				t.Fatalf("n=%d %s: shards are not a permutation of the table", n, table)
			}
		}
	}
}

// TestNewClusterRejectsBadTopology: node and shard validation.
func TestNewClusterRejectsBadTopology(t *testing.T) {
	store := exampleStore(t, 10, 2)
	if _, err := dist.NewCluster(store, 0, 0); err == nil {
		t.Fatal("0 nodes accepted")
	}
	if _, err := dist.NewCluster(store, -3, 0); err == nil {
		t.Fatal("negative nodes accepted")
	}
	for _, s := range []int{3, 5, 6, 7, 12} {
		if _, err := dist.NewCluster(store, 2, s); err == nil {
			t.Fatalf("non-power-of-two shard count %d accepted", s)
		}
	}
	for _, s := range []int{1, 2, 4, 64} {
		if _, err := dist.NewCluster(store, 2, s); err != nil {
			t.Fatalf("shard count %d rejected: %v", s, err)
		}
	}
}

// TestDefaultShardsAnyNodeCount: with no shard count a cluster of a node
// count that is not a power of two takes the smallest power of two of at
// least eight shards a node, so three nodes run on 32 shards and both plans
// of Example 1 return the reference evaluator's rows.
func TestDefaultShardsAnyNodeCount(t *testing.T) {
	store := exampleStore(t, 300, 7)
	cl, err := dist.NewCluster(store, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Nodes() != 3 || cl.Shards() != 32 {
		t.Fatalf("%d nodes on %d shards, want 3 on 32", cl.Nodes(), cl.Shards())
	}
	for pi, plan := range plansFor(t, store, workload.Example1Query) {
		want, err := workload.RefEval(plan, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := dist.Compile(plan, dist.Config{Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run(dp, &exec.Options{})
		if err != nil {
			t.Fatalf("plan %d: %v", pi, err)
		}
		if len(want) == 0 || !slices.Equal(workload.Multiset(res.Rows), workload.Multiset(want)) {
			t.Fatalf("plan %d: %d rows on 3 nodes are not the reference's %d", pi, len(res.Rows), len(want))
		}
	}
}

// randomRow builds a row of random values including NULLs.
func randomRow(r *rand.Rand, width int) value.Row {
	row := make(value.Row, width)
	for i := range row {
		switch r.Intn(5) {
		case 0:
			row[i] = value.Null
		case 1:
			row[i] = value.NewString(fmt.Sprintf("s%d", r.Intn(10)))
		case 2:
			row[i] = value.NewBool(r.Intn(2) == 0)
		case 3:
			row[i] = value.NewFloat(float64(r.Intn(20)) / 2)
		default:
			row[i] = value.NewInt(int64(r.Intn(100)))
		}
	}
	return row
}

// someCols picks a non-empty subset of column positions.
func someCols(r *rand.Rand, width int) []int {
	var cols []int
	for i := 0; i < width; i++ {
		if r.Intn(2) == 0 {
			cols = append(cols, i)
		}
	}
	if len(cols) == 0 {
		cols = []int{r.Intn(width)}
	}
	return cols
}

// sameMultiset compares two row sets ignoring order.
func sameMultiset(a, b []value.Row) bool {
	return slices.Equal(workload.Multiset(a), workload.Multiset(b))
}

// BenchmarkRowBytes measures the wire-size accounting of one shipped row — a
// partial-aggregate row of the benchmark's dist_ship shape (a). It must not
// allocate: links call it once per shipped row.
func BenchmarkRowBytes(b *testing.B) {
	row := value.Row{value.NewInt(17), value.NewString("dim00017"), value.NewInt(48), value.NewInt(2391)}
	b.ReportAllocs()
	var total int64
	for i := 0; i < b.N; i++ {
		total += dist.RowBytes(row)
	}
	if total != int64(b.N)*dist.RowBytes(row) {
		b.Fatal("RowBytes is not a function of the row")
	}
}

// TestDefaultShardsBalanceNodes: under the default shard count every node of
// a cluster of 3, 5 or 6 nodes holds within 15 % of an even share of the
// 3 000 Employee rows, and a power-of-two node count keeps one shard a node.
func TestDefaultShardsBalanceNodes(t *testing.T) {
	const rows = 3000
	store := exampleStore(t, rows, 7)
	for _, n := range []int{3, 5, 6} {
		cl, err := dist.NewCluster(store, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		even := float64(rows) / float64(n)
		for i := 0; i < n; i++ {
			if got := float64(len(cl.Node(i).TableRows("Employee"))); got < 0.85*even || got > 1.15*even {
				t.Errorf("%d nodes on %d shards: node %d holds %.0f rows, want %.0f within 15%%", n, cl.Shards(), i, got, even)
			}
		}
	}
	for _, n := range []int{1, 2, 4, 8} {
		cl, err := dist.NewCluster(store, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cl.Shards() != n {
			t.Errorf("%d nodes on %d shards, want %d", n, cl.Shards(), n)
		}
	}
}
