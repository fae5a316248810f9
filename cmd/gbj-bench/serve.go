package main

// E17 — the closed-loop server load experiment. By default it stands up an
// in-process gbj-server on a loopback listener (so the cold pass really
// measures an empty plan cache), drives it with the bench load harness, and
// tears it down; -server points it at an already-running daemon instead.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/server"
)

// validateServerURL rejects a malformed -server value up front (the exit-2
// path with the other flag validators); empty means "start one in-process".
func validateServerURL(u string) error {
	if u == "" {
		return nil
	}
	if err := cliutil.ValidateServerURL(u); err != nil {
		return fmt.Errorf("-server: %w", err)
	}
	return nil
}

// loadClients/loadOpsPerRep shape E17: 64 concurrent sessions (the
// acceptance floor) issuing 8 closed-loop operations per repetition each.
const (
	loadClients    = 64
	loadOpsPerRep  = 8
	loadWriteEvery = 4
)

// seedLoadEngine builds the Employee/Department schema E17 queries plus the
// writable kv table its DML mix inserts into.
func seedLoadEngine(e *gbj.Engine, emps, depts int) error {
	stmts := []string{
		`CREATE TABLE Dept (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30))`,
		`CREATE TABLE Emp (EmpID INTEGER PRIMARY KEY, DeptID INTEGER, Salary INTEGER)`,
		`CREATE TABLE kv (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)`,
	}
	for _, s := range stmts {
		if err := e.Exec(s); err != nil {
			return err
		}
	}
	var b strings.Builder
	for i := 1; i <= depts; i++ {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'D%03d')", i, i)
	}
	if err := e.Exec("INSERT INTO Dept VALUES " + b.String()); err != nil {
		return err
	}
	// Batched inserts: one statement per 500 rows keeps parse cost sane.
	for lo := 1; lo <= emps; lo += 500 {
		b.Reset()
		for i := lo; i <= emps && i < lo+500; i++ {
			if b.Len() > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d)", i, i%depts+1, 1000+i%500)
		}
		if err := e.Exec("INSERT INTO Emp VALUES " + b.String()); err != nil {
			return err
		}
	}
	return nil
}

func runE17(reps int) error {
	ctx := context.Background()
	url := serverURL
	if url == "" {
		// In-process server: fresh engine, fresh (cold) plan cache.
		e := gbj.New()
		// The server under load is single-site: the cluster knobs belong to
		// E12/E16.
		e.SetParallelism(knobs.Parallelism)
		e.SetVectorize(knobs.Vectorize)
		e.SetMemoryBudget(knobs.MemBudget)
		e.SetSpillDir(knobs.SpillDir)
		if err := seedLoadEngine(e, 5000, 100); err != nil {
			return err
		}
		srv, err := server.New(ctx, server.Config{
			Engine:        e,
			PoolBytes:     256 << 20,
			PerQueryBytes: 4 << 20,
			MaxQueue:      256,
			MaxSessions:   2 * loadClients,
			PlanCacheSize: 64,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		defer func() {
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				fmt.Println("shutdown:", err)
			}
			<-done
		}()
		url = "http://" + ln.Addr().String()
	} else {
		fmt.Printf("driving external server at %s (cold p50 is only meaningful on a freshly started daemon)\n", url)
	}

	cfg := bench.LoadConfig{
		Clients: loadClients,
		Ops:     loadOpsPerRep * reps,
		Queries: []string{
			// The paper's Example 1 shape: group-by join, cache-friendly.
			`SELECT d.DeptID, d.Name, COUNT(e.EmpID), SUM(e.Salary) FROM Emp e, Dept d WHERE e.DeptID = d.DeptID GROUP BY d.DeptID, d.Name ORDER BY DeptID`,
			`SELECT DeptID, COUNT(EmpID) FROM Emp GROUP BY DeptID ORDER BY DeptID`,
			`SELECT COUNT(id), SUM(val) FROM kv`,
		},
		// Writers insert val = 2*grp rows, preserving SUM(val) = 2*SUM(grp)
		// so a concurrent reader never sees a torn aggregate.
		Write: func(client, op int) string {
			id := client*1_000_000 + op + 1
			grp := id % 5
			return fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", id, grp, 2*grp)
		},
		WriteEvery: loadWriteEvery,
	}
	fmt.Printf("%d concurrent sessions x %d closed-loop ops, ~%d%% DML, plan cache on\n\n",
		cfg.Clients, cfg.Ops, 100/(loadWriteEvery*loadWriteEvery))
	res, err := bench.RunLoad(ctx, url, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res)
	if res.WarmP50 < res.ColdP50 {
		fmt.Printf("plan cache pays: warm p50 is %.1fx below cold p50\n",
			float64(res.ColdP50)/float64(res.WarmP50))
	} else {
		fmt.Println("warning: warm p50 not below cold p50 (noise or cache off?)")
	}
	if record != nil {
		record.AddLoad("E17", "", knobs.Parallelism, res)
	}
	return nil
}
