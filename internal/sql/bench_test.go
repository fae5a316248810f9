package sql

import "testing"

// example1Query is the paper's Example 1 query.
const example1Query = `SELECT D.DeptID, D.Name, COUNT(E.EmpID) FROM Employee E, Department D WHERE E.DeptID = D.DeptID GROUP BY D.DeptID, D.Name`

// hrReads are the benchmark's serve_mixed reads over its hr schema. They
// seed FuzzCanonical and, with Example 1, feed the layer benchmarks below.
var hrReads = []string{
	"SELECT d.DeptID, d.Name, COUNT(e.EmpID), SUM(e.Salary) FROM Emp e, Dept d WHERE (e.DeptID = d.DeptID) GROUP BY d.DeptID, d.Name ORDER BY DeptID",
	"SELECT DeptID, COUNT(EmpID) FROM Emp WHERE Salary >= 0 GROUP BY DeptID ORDER BY DeptID",
	"SELECT COUNT(id), SUM(val), SUM(grp) FROM kv WHERE id > 0",
	"SELECT d.Name, MAX(e.Salary), MIN(e.Salary) FROM Emp e, Dept d WHERE e.DeptID = d.DeptID GROUP BY d.Name",
	"SELECT e.EmpID, e.Salary, d.Name FROM Emp e, Dept d WHERE (e.DeptID = d.DeptID) AND (e.Salary > 1450)",
	"select grp, count(id), sum(val) from kv where id > 0 group by grp order by grp",
	"SELECT d.DeptID, AVG(e.Salary) FROM Emp e, Dept d WHERE e.DeptID = d.DeptID AND d.DeptID < 6 GROUP BY d.DeptID",
	"SELECT EmpID, Salary FROM Emp WHERE Salary > 1400 AND DeptID = 3 ORDER BY EmpID",
}

// benchQueries is Example 1 followed by the eight hr reads: one op of each
// layer benchmark below handles all nine texts.
var benchQueries = append([]string{example1Query}, hrReads...)

// BenchmarkLex times the lexer alone.
func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range benchQueries {
			if _, err := Lex(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParse times lexing and parsing a SELECT into its tree.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range benchQueries {
			if _, err := ParseQuery(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// canonicalSink keeps BenchmarkCanonical's result live.
var canonicalSink string

// BenchmarkCanonical times rendering a parsed SELECT as its canonical text,
// the plan cache's key.
func BenchmarkCanonical(b *testing.B) {
	trees := make([]*SelectStmt, len(benchQueries))
	for i, q := range benchQueries {
		t, err := ParseQuery(q)
		if err != nil {
			b.Fatal(err)
		}
		trees[i] = t
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range trees {
			canonicalSink = Canonical(t)
		}
	}
}
