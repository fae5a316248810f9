package gbj

import (
	"context"
	"encoding/csv"
	"errors"
	"io"
	"strings"
	"testing"
)

func csvEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	e.MustExec(`CREATE TABLE T (
		id INTEGER PRIMARY KEY,
		name CHARACTER(30),
		score DOUBLE PRECISION,
		active BOOLEAN)`)
	return e
}

func TestLoadCSVPositional(t *testing.T) {
	e := csvEngine(t)
	n, err := e.LoadCSV("T", strings.NewReader(
		"1,alice,2.5,true\n2,bob,NULL,false\n3,,1.0,true\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("inserted %d rows, want 3", n)
	}
	res, err := e.QueryOptionsContext(context.Background(), `SELECT T.id, T.name, T.score, T.active FROM T ORDER BY id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].(string) != "alice" || res.Rows[0][2].(float64) != 2.5 {
		t.Errorf("row 1 = %v", res.Rows[0])
	}
	if res.Rows[1][2] != nil {
		t.Errorf("NULL field loaded as %v", res.Rows[1][2])
	}
	if res.Rows[2][1] != nil {
		t.Errorf("empty field loaded as %v, want NULL", res.Rows[2][1])
	}
}

func TestLoadCSVWithHeader(t *testing.T) {
	e := csvEngine(t)
	// Header reorders and omits columns.
	n, err := e.LoadCSV("T", strings.NewReader(
		"name,id\nalice,1\nbob,2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("inserted %d rows, want 2", n)
	}
	res, err := e.QueryOptionsContext(context.Background(), `SELECT T.id, T.name, T.score FROM T ORDER BY id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1 || res.Rows[0][1].(string) != "alice" {
		t.Errorf("row 1 = %v", res.Rows[0])
	}
	if res.Rows[0][2] != nil {
		t.Errorf("omitted column loaded as %v, want NULL", res.Rows[0][2])
	}
}

func TestLoadCSVErrors(t *testing.T) {
	e := csvEngine(t)
	cases := []struct {
		name   string
		data   string
		header bool
		want   string
	}{
		{"unknown column", "bogus\n1\n", true, "unknown column"},
		{"column named twice", "id,id\n1,2\n", true, `column "id" of T twice`},
		{"bad integer", "x,alice,1.0,true\n", false, "bad integer"},
		{"bad number", "1,alice,zzz,true\n", false, "bad number"},
		{"bad boolean", "1,alice,1.0,maybe\n", false, "bad boolean"},
		{"field count", "1,alice\n", false, "fields"},
	}
	for _, c := range cases {
		if _, err := e.LoadCSV("T", strings.NewReader(c.data), c.header); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.want)
		}
	}
	// Constraint violations surface with the line number.
	if _, err := e.LoadCSV("T", strings.NewReader("1,a,1.0,true\n1,b,2.0,false\n"), false); err == nil ||
		!strings.Contains(err.Error(), "line 2") {
		t.Errorf("duplicate key error = %v", err)
	}
	if _, err := e.LoadCSV("NoSuch", strings.NewReader("1\n"), false); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestExplainAnalyze(t *testing.T) {
	e := newExample1Engine(t)
	a, err := e.QueryAnalyzedContext(context.Background(), example1Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := a.String()
	for _, want := range []string{"rows", "GroupBy", "(3 rows)"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
}

// failingReader yields its data, then fails with a sentinel error —
// simulating an I/O fault in the middle of a bulk load.
type failingReader struct {
	data io.Reader
	err  error
	done bool
}

func (f *failingReader) Read(p []byte) (int, error) {
	if !f.done {
		n, err := f.data.Read(p)
		if err == io.EOF {
			f.done = true
			return n, nil
		}
		return n, err
	}
	return 0, f.err
}

// TestLoadCSVMidFileReadError: an I/O error after some rows loaded aborts
// the load with the failing line's number, preserves the inserted count,
// and — because LoadCSV wraps with %w — keeps the cause reachable through
// errors.Is.
func TestLoadCSVMidFileReadError(t *testing.T) {
	e := csvEngine(t)
	sentinel := errors.New("disk on fire")
	r := &failingReader{data: strings.NewReader("1,alice,2.5,true\n2,bob,1.0,false\n"), err: sentinel}
	n, err := e.LoadCSV("T", r, false)
	if err == nil {
		t.Fatal("mid-file read error went unreported")
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("cause not reachable through errors.Is: %v", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name the failing line: %v", err)
	}
	if n != 2 {
		t.Errorf("inserted count = %d, want the 2 rows loaded before the fault", n)
	}
	// The rows that made it in are queryable.
	res, qerr := e.QueryOptionsContext(context.Background(), `SELECT T.id FROM T ORDER BY id`, nil)
	if qerr != nil || len(res.Rows) != 2 {
		t.Errorf("rows after aborted load: %v (err %v), want 2", res, qerr)
	}
}

// TestLoadCSVSyntaxErrorUnwraps: a CSV syntax error (bare quote) surfaces
// the encoding/csv *ParseError through errors.As, with our line context.
func TestLoadCSVSyntaxErrorUnwraps(t *testing.T) {
	e := csvEngine(t)
	_, err := e.LoadCSV("T", strings.NewReader("1,alice,2.5,true\n2,\"bo\"b,1.0,false\n"), false)
	if err == nil {
		t.Fatal("malformed quoting went unreported")
	}
	var pe *csv.ParseError
	if !errors.As(err, &pe) {
		t.Errorf("*csv.ParseError not reachable through errors.As: %v", err)
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error carries no line context: %v", err)
	}
}

// TestLoadCSVHeaderReadError: a reader that fails on the first byte aborts
// before any insert, with the cause wrapped.
func TestLoadCSVHeaderReadError(t *testing.T) {
	e := csvEngine(t)
	sentinel := errors.New("gone")
	n, err := e.LoadCSV("T", &failingReader{data: strings.NewReader(""), err: sentinel}, true)
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("header read error = %v, want wrapped sentinel", err)
	}
	if n != 0 {
		t.Errorf("inserted %d rows from a dead reader", n)
	}
}
