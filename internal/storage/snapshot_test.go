package storage

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func snapshotStore(t *testing.T) *Store {
	t.Helper()
	cat := schema.NewCatalog()
	s := NewStore(cat)
	def := &schema.Table{
		Name: "t",
		Columns: []schema.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "v", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"id"}, Primary: true}},
	}
	if err := s.CreateTable(def); err != nil {
		t.Fatalf("create: %v", err)
	}
	return s
}

func intsRow(vals ...int64) value.Row {
	row := make(value.Row, len(vals))
	for i, v := range vals {
		row[i] = value.NewInt(v)
	}
	return row
}

// A snapshot taken mid-stream keeps serving the exact multiset it
// captured while the live store moves on.
func TestSnapshotStableAcrossInserts(t *testing.T) {
	s := snapshotStore(t)
	for i := 0; i < 5; i++ {
		s.MustInsert("t", intsRow(int64(i), int64(i*10)))
	}
	snap := s.Snapshot()
	epoch := snap.Epoch()
	if epoch != s.Epoch() {
		t.Fatalf("snapshot epoch %d != live epoch %d at capture", epoch, s.Epoch())
	}
	for i := 5; i < 50; i++ {
		s.MustInsert("t", intsRow(int64(i), int64(i*10)))
	}
	st, err := snap.Table("t")
	if err != nil {
		t.Fatalf("snapshot table: %v", err)
	}
	if st.Len() != 5 {
		t.Fatalf("snapshot sees %d rows, want 5", st.Len())
	}
	for i := 0; i < 5; i++ {
		if got := st.Row(i)[0].Int(); got != int64(i) {
			t.Fatalf("snapshot row %d id = %d", i, got)
		}
	}
	if snap.Epoch() != epoch {
		t.Fatalf("snapshot epoch moved: %d -> %d", epoch, snap.Epoch())
	}
	live, err := s.Table("t")
	if err != nil {
		t.Fatalf("live table: %v", err)
	}
	if live.Len() != 50 {
		t.Fatalf("live sees %d rows, want 50", live.Len())
	}
	if s.Epoch() <= epoch {
		t.Fatalf("live epoch did not advance past %d", epoch)
	}
}

// Snapshots are read-only: writes of every kind are rejected.
func TestSnapshotRejectsWrites(t *testing.T) {
	s := snapshotStore(t)
	s.MustInsert("t", intsRow(1, 1))
	snap := s.Snapshot()
	if !snap.Frozen() {
		t.Fatal("snapshot not marked frozen")
	}
	if err := snap.Insert("t", intsRow(2, 2)); err == nil {
		t.Fatal("insert into snapshot succeeded")
	}
	def := &schema.Table{Name: "u", Columns: []schema.Column{{Name: "a", Type: value.KindInt}}}
	if err := snap.CreateTable(def); err == nil {
		t.Fatal("create table on snapshot succeeded")
	}
	// The failed writes must not have advanced the snapshot's epoch or
	// leaked into the live store.
	if snap.Epoch() != s.Epoch() {
		t.Fatalf("epoch skew after rejected writes: snap %d live %d", snap.Epoch(), s.Epoch())
	}
	if s.Catalog().HasTable("u") {
		t.Fatal("rejected DDL reached the live catalog")
	}
}

// DDL that bypasses the store (CREATE DOMAIN / CREATE VIEW) reaches the
// live catalog, and snapshots don't see the new objects.
func TestSnapshotCatalogIsolation(t *testing.T) {
	s := snapshotStore(t)
	snap := s.Snapshot()
	if err := s.Catalog().AddView(&schema.View{Name: "v", Text: "SELECT 1"}); err != nil {
		t.Fatalf("add view: %v", err)
	}
	if snap.Catalog().View("v") != nil {
		t.Fatal("snapshot catalog sees view created after capture")
	}
	if s.Catalog().View("v") == nil {
		t.Fatal("live catalog lost the view")
	}
}

// Concurrent snapshot readers vs a writer: run under -race. Each reader
// captures a snapshot, records its length, and re-reads it repeatedly
// while the writer inserts; any drift is a torn snapshot. The writer's
// insert count is fixed and the readers loop until it is done, so the
// table — which every reader iteration re-columnarizes — stays bounded and
// the test's work is linear however the scheduler interleaves them.
func TestSnapshotConcurrentReadersVsWriter(t *testing.T) {
	const inserts = 2000
	s := snapshotStore(t)
	for i := 0; i < 8; i++ {
		s.MustInsert("t", intsRow(int64(i), int64(i)))
	}
	var writer sync.WaitGroup
	written := make(chan struct{})
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(written)
		for i := 8; i < 8+inserts; i++ {
			s.MustInsert("t", intsRow(int64(i), int64(i)))
			runtime.Gosched() // let readers capture intermediate versions
		}
	}()
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for done := false; !done; {
				select {
				case <-written:
					done = true // one last pass over the final table
				default:
				}
				snap := s.Snapshot()
				tab, err := snap.Table("t")
				if err != nil {
					errs <- err
					return
				}
				// Row i holds id i: the writer's later rows, cut from the
				// same slab pages, never land on a captured one.
				n := tab.Len()
				for i := 0; i < n; i++ {
					if id := tab.Row(i)[0].Int(); id != int64(i) {
						errs <- fmt.Errorf("snapshot row %d reads id %d", i, id)
						return
					}
				}
				// Re-read: same table version must yield the same data.
				tab2, _ := snap.Table("t")
				if tab2.Len() != n {
					errs <- fmt.Errorf("snapshot length moved %d -> %d", n, tab2.Len())
					return
				}
				// Columnar conversion of a snapshot must cover exactly
				// its rows.
				rows := 0
				for _, b := range tab.Columnar() {
					rows += b.Len()
				}
				if rows != n {
					errs <- fmt.Errorf("columnar rows %d != snapshot rows %d", rows, n)
					return
				}
			}
		}()
	}
	readers.Wait()
	writer.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
