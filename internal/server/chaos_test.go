package server

// Shutdown chaos: kill the server while spilling queries are mid-flight.
// Every client must get a clean typed error (503 shutting_down) or a
// complete result — never a partial result, a panic, or a hang — and the
// teardown must leak neither goroutines nor spill files.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// liveFiles counts regular files under dir.
func liveFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// settleGoroutines waits for the goroutine count to return to baseline
// (tolerating a couple of runtime-internal stragglers).
func settleGoroutines(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShutdownMidQueryChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	spillDir := t.TempDir()

	e := gbj.New()
	e.MustExec(`CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)`)
	// 1200 rows in 3 groups: the self-join below produces 3 * 400^2 =
	// 480k intermediate rows — long enough to still be running when the
	// shutdown lands, heavy enough to spill under a 64 KiB budget.
	var sb strings.Builder
	sb.WriteString(`INSERT INTO big VALUES `)
	for i := 0; i < 1200; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", i, i%3, i%7)
	}
	e.MustExec(sb.String())
	e.SetMemoryBudget(1 << 16)
	e.SetSpillDir(spillDir)

	s, err := New(context.Background(), Config{
		Engine:        e,
		PoolBytes:     1 << 24,
		PerQueryBytes: 1 << 20,
		MaxQueue:      64,
		PlanCacheSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const heavy = `SELECT a.grp, COUNT(b.id), SUM(b.val) FROM big a, big b WHERE a.grp = b.grp GROUP BY a.grp ORDER BY grp`
	const clients = 8
	ctx := context.Background()
	var wg sync.WaitGroup
	started := make(chan struct{}, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(ts.URL, ts.Client())
			started <- struct{}{}
			_, err := c.QueryDetail(ctx, heavy, nil)
			if err == nil {
				return // finished before the axe fell: fine
			}
			var ae *APIError
			if !errors.As(err, &ae) {
				errs <- fmt.Errorf("client %d: untyped failure %T: %v", i, err, err)
				return
			}
			if ae.Status != http.StatusServiceUnavailable || ae.Code != "shutting_down" {
				errs <- fmt.Errorf("client %d: got HTTP %d code %q, want 503 shutting_down", i, ae.Status, ae.Code)
			}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-started
	}
	// Let the queries get into execution, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every spilling query swept its temp files on abort.
	if n := liveFiles(t, spillDir); n != 0 {
		t.Fatalf("%d spill files survive shutdown", n)
	}
	// New work is refused with the typed path, not a panic.
	c := NewClient(ts.URL, ts.Client())
	_, err = c.QueryDetail(ctx, `SELECT COUNT(id) FROM big`, nil)
	apiError(t, err, http.StatusServiceUnavailable, "shutting_down")

	// Teardown leaks no goroutines.
	ts.Close()
	ts.Client().CloseIdleConnections()
	settleGoroutines(t, baseline)
}
