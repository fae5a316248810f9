package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gbj "repro"
	"repro/internal/workload"
)

// TestWriteFileEmptyRuns: -json must produce a valid document even for an
// empty run set — "runs": [], never null.
func TestWriteFileEmptyRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	f := &File{Tool: "gbj-bench"}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "null") {
		t.Fatalf("empty run set serialized a null field:\n%s", data)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Runs == nil || len(back.Runs) != 0 {
		t.Fatalf("want empty (non-nil) runs, got %#v", back.Runs)
	}
}

// TestCompareDistributedCommBytes: the harness measures both strategies on
// a cluster, the eager strategy ships fewer bytes on a many-rows-per-group
// workload, and the byte totals land in the JSON record's comm_bytes.
func TestCompareDistributedCommBytes(t *testing.T) {
	store, err := workload.EmployeeDepartment(2000, 20)
	if err != nil {
		t.Fatal(err)
	}
	e := gbj.NewWithStore(store)
	if err := e.Configure(gbj.Config{Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	c, err := CompareDistributed(context.Background(), e, workload.Example1Query, 1)
	if err != nil {
		t.Fatal(err)
	}
	lazyBytes, eagerBytes := c.Standard.CommBytes(), c.Transformed.CommBytes()
	if lazyBytes <= 0 || eagerBytes <= 0 {
		t.Fatalf("no exchange bytes recorded: lazy=%d eager=%d", lazyBytes, eagerBytes)
	}
	if eagerBytes >= lazyBytes {
		t.Fatalf("eager shipped %d bytes, lazy %d — eager must ship fewer on Example 1", eagerBytes, lazyBytes)
	}
	f := &File{Tool: "gbj-bench"}
	f.Add("E12", "nodes=4", c)
	rec := f.Runs[0]
	if rec.Standard.CommBytes != lazyBytes || rec.Transformed.CommBytes != eagerBytes {
		t.Fatalf("comm_bytes not recorded: standard=%d (want %d) transformed=%d (want %d)",
			rec.Standard.CommBytes, lazyBytes, rec.Transformed.CommBytes, eagerBytes)
	}
}
