// Package workload builds the deterministic data sets behind the paper's
// examples and the benchmark sweeps: the Employee/Department schema of
// Example 1 / Figure 1, the adversarial Figure 8 instance where eager
// aggregation hurts, the UserAccount/PrinterAuth/Printer schema of
// Examples 3 and 5, the Part/Supplier schema of Example 2, and a
// parameterized two-table star schema for the Section 7 selectivity and
// group-count sweeps.
//
// Generators are deterministic (seeded) so experiment tables are
// reproducible run to run. The package also holds the oracle corpus
// (corpus.go) and RefEval, the reference evaluator every oracle compares
// the executor with, and the fingerprint it compares in (reference.go).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
)

// EmployeeDepartment materializes the Example 1 schema with the given
// cardinalities. Employees are assigned to departments round-robin, so each
// department gets employees/departments members (the paper's Figure 1 uses
// 10000 employees and 100 departments).
func EmployeeDepartment(employees, departments int) (*storage.Store, error) {
	s := storage.NewStore(schema.NewCatalog())
	if err := s.CreateTable(&schema.Table{
		Name: "Department",
		Columns: []schema.Column{
			{Name: "DeptID", Type: value.KindInt},
			{Name: "Name", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"DeptID"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	if err := s.CreateTable(&schema.Table{
		Name: "Employee",
		Columns: []schema.Column{
			{Name: "EmpID", Type: value.KindInt},
			{Name: "LastName", Type: value.KindString},
			{Name: "FirstName", Type: value.KindString},
			{Name: "DeptID", Type: value.KindInt},
		},
		Keys:        []schema.Key{{Columns: []string{"EmpID"}, Primary: true}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"DeptID"}, RefTable: "Department"}},
	}); err != nil {
		return nil, err
	}
	for d := 0; d < departments; d++ {
		s.MustInsert("Department", value.Row{
			value.NewInt(int64(d)), value.NewString(fmt.Sprintf("Dept-%03d", d)),
		})
	}
	for e := 0; e < employees; e++ {
		s.MustInsert("Employee", value.Row{
			value.NewInt(int64(e)),
			value.NewString(fmt.Sprintf("Last%05d", e)),
			value.NewString(fmt.Sprintf("First%05d", e)),
			value.NewInt(int64(e % departments)),
		})
	}
	return s, nil
}

// Example1Query is the paper's Example 1 query.
const Example1Query = `
	SELECT D.DeptID, D.Name, COUNT(E.EmpID)
	FROM Employee E, Department D
	WHERE E.DeptID = D.DeptID
	GROUP BY D.DeptID, D.Name`

// Figure8Params shapes the adversarial Example 4 / Figure 8 instance: A has
// ARows rows with AGroups distinct grouping values; B has BRows rows; the
// join selects roughly JoinOut of the A rows (the paper: 10000 A rows,
// 9000 groups, 100 B rows, 50 join rows forming 10 final groups).
type Figure8Params struct {
	ARows, AGroups, BRows, JoinOut int
}

// Figure8Defaults are the paper's Figure 8 cardinalities.
var Figure8Defaults = Figure8Params{ARows: 10000, AGroups: 9000, BRows: 100, JoinOut: 50}

// Figure8 materializes the Figure 8 instance. Table A(GroupKey, JoinKey, V)
// joins B(BID, Tag) on JoinKey = BID. Only the first JoinOut rows of A
// carry join keys that exist in B, and they are spread over 10 B rows and
// 10 distinct group keys, reproducing the paper's 50-row join output with
// 10 final groups.
func Figure8(p Figure8Params) (*storage.Store, error) {
	s := storage.NewStore(schema.NewCatalog())
	if err := s.CreateTable(&schema.Table{
		Name: "B",
		Columns: []schema.Column{
			{Name: "BID", Type: value.KindInt},
			{Name: "Tag", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"BID"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	if err := s.CreateTable(&schema.Table{
		Name: "A",
		Columns: []schema.Column{
			{Name: "GroupKey", Type: value.KindInt},
			{Name: "JoinKey", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		},
	}); err != nil {
		return nil, err
	}
	for b := 0; b < p.BRows; b++ {
		s.MustInsert("B", value.Row{value.NewInt(int64(b)), value.NewString(fmt.Sprintf("tag%02d", b))})
	}
	finalGroups := 10
	if p.JoinOut < finalGroups {
		finalGroups = p.JoinOut
	}
	for a := 0; a < p.ARows; a++ {
		var joinKey int64
		if a < p.JoinOut {
			// Joining rows: spread over the first finalGroups B rows,
			// so the join yields JoinOut rows forming finalGroups
			// groups.
			joinKey = int64(a % finalGroups)
		} else {
			// Non-joining rows: keys beyond B's ID range. Each is
			// distinct, so eager grouping on the join key explodes to
			// roughly AGroups groups — the paper's Plan 2 pathology.
			joinKey = int64(p.BRows + a%(p.AGroups-finalGroups) + 1)
		}
		s.MustInsert("A", value.Row{
			value.NewInt(int64(a % p.AGroups)), value.NewInt(joinKey), value.NewInt(int64(a)),
		})
	}
	return s, nil
}

// Figure8Query groups the A⋈B result by the join key: the transformation
// is provably valid (GA1+ = GA1 and B.BID is a key), yet eager aggregation
// must group all of A (~AGroups groups) where the standard plan groups only
// the JoinOut join rows — the Figure 8 trade-off.
const Figure8Query = `
	SELECT A.JoinKey, SUM(A.V)
	FROM A, B
	WHERE A.JoinKey = B.BID
	GROUP BY A.JoinKey`

// PrinterParams sizes the Example 3 / Example 5 schema.
type PrinterParams struct {
	Users, Machines, Printers int
	// AuthsPerUser is how many printers each account is authorized for.
	AuthsPerUser int
	// Seed drives the deterministic pseudo-random printer assignment.
	Seed int64
}

// PrinterDefaults is a mid-sized instance.
var PrinterDefaults = PrinterParams{Users: 1000, Machines: 10, Printers: 50, AuthsPerUser: 5, Seed: 1}

// Printers materializes the UserAccount/PrinterAuth/Printer schema of
// Section 6.3 with Users×Machines accounts. Machine 0 is named "dragon".
func Printers(p PrinterParams) (*storage.Store, error) {
	s := storage.NewStore(schema.NewCatalog())
	if err := s.CreateTable(&schema.Table{
		Name: "UserAccount",
		Columns: []schema.Column{
			{Name: "UserId", Type: value.KindInt},
			{Name: "Machine", Type: value.KindString},
			{Name: "UserName", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"UserId", "Machine"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	if err := s.CreateTable(&schema.Table{
		Name: "Printer",
		Columns: []schema.Column{
			{Name: "PNo", Type: value.KindInt},
			{Name: "Speed", Type: value.KindInt},
			{Name: "Make", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"PNo"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	if err := s.CreateTable(&schema.Table{
		Name: "PrinterAuth",
		Columns: []schema.Column{
			{Name: "UserId", Type: value.KindInt},
			{Name: "Machine", Type: value.KindString},
			{Name: "PNo", Type: value.KindInt},
			{Name: "Usage", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"UserId", "Machine", "PNo"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	machineName := func(m int) string {
		if m == 0 {
			return "dragon"
		}
		return fmt.Sprintf("machine%02d", m)
	}
	for pr := 0; pr < p.Printers; pr++ {
		s.MustInsert("Printer", value.Row{
			value.NewInt(int64(pr)), value.NewInt(int64(1 + pr%40)), value.NewString("ACME"),
		})
	}
	r := rand.New(rand.NewSource(p.Seed))
	for u := 0; u < p.Users; u++ {
		m := u % p.Machines
		s.MustInsert("UserAccount", value.Row{
			value.NewInt(int64(u)), value.NewString(machineName(m)),
			value.NewString(fmt.Sprintf("user%05d", u)),
		})
		start := r.Intn(p.Printers)
		for k := 0; k < p.AuthsPerUser; k++ {
			s.MustInsert("PrinterAuth", value.Row{
				value.NewInt(int64(u)), value.NewString(machineName(m)),
				value.NewInt(int64((start + k) % p.Printers)),
				value.NewInt(int64(r.Intn(1000))),
			})
		}
	}
	return s, nil
}

// Example3Query is the Section 6.3 query.
const Example3Query = `
	SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
	FROM UserAccount U, PrinterAuth A, Printer P
	WHERE U.UserId = A.UserId AND U.Machine = A.Machine
	      AND A.PNo = P.PNo AND U.Machine = 'dragon'
	GROUP BY U.UserId, U.UserName`

// UserInfoViewSQL is the Example 5 aggregated view definition.
const UserInfoViewSQL = `
	SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
	FROM PrinterAuth A, Printer P
	WHERE A.PNo = P.PNo
	GROUP BY A.UserId, A.Machine`

// Example5Query is the Section 8 query over the UserInfo view.
const Example5Query = `
	SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
	FROM UserInfo I, UserAccount U
	WHERE I.UserId = U.UserId AND I.Machine = U.Machine AND U.Machine = 'dragon'`

// Example5FlatQuery is Example5Query merged into one block (Section 8): the
// view's grouping moves above every join, so the query joins first and groups
// once — the Example 3 query under the view's column names.
const Example5FlatQuery = `
	SELECT U.UserId AS UserId, U.UserName AS UserName, SUM(A.Usage) AS TotUsage,
	       MAX(P.Speed) AS MaxSpeed, MIN(P.Speed) AS MinSpeed
	FROM UserAccount U, PrinterAuth A, Printer P
	WHERE A.UserId = U.UserId AND A.Machine = U.Machine AND U.Machine = 'dragon'
	      AND A.PNo = P.PNo
	GROUP BY U.UserId, U.UserName`

// RegisterUserInfoView adds the Example 5 aggregated view to a printer
// store's catalog.
func RegisterUserInfoView(s *storage.Store) error {
	def, err := sql.ParseQuery(UserInfoViewSQL)
	if err != nil {
		return err
	}
	return s.Catalog().AddView(&schema.View{
		Name:    "UserInfo",
		Text:    "CREATE VIEW UserInfo AS " + UserInfoViewSQL,
		Def:     def,
		Columns: []string{"UserId", "Machine", "TotUsage", "MaxSpeed", "MinSpeed"},
	})
}

// SweepParams shapes the generic fact/dimension instance for the Section 7
// sweeps. Fact(FID, DimID, GroupID, V) joins Dim(DimID, Label) on DimID;
// MatchFraction controls how many fact rows find a dimension partner (join
// selectivity) and Groups controls the number of distinct Fact.GroupID
// values (grouping selectivity).
type SweepParams struct {
	FactRows      int
	DimRows       int
	Groups        int
	MatchFraction float64
	Seed          int64
}

// Sweep materializes the generic instance.
func Sweep(p SweepParams) (*storage.Store, error) {
	s := storage.NewStore(schema.NewCatalog())
	if err := s.CreateTable(&schema.Table{
		Name: "Dim",
		Columns: []schema.Column{
			{Name: "DimID", Type: value.KindInt},
			{Name: "Label", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"DimID"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	if err := s.CreateTable(&schema.Table{
		Name: "Fact",
		Columns: []schema.Column{
			{Name: "FID", Type: value.KindInt},
			{Name: "DimID", Type: value.KindInt},
			{Name: "GroupID", Type: value.KindInt},
			{Name: "V", Type: value.KindInt},
		},
		Keys: []schema.Key{{Columns: []string{"FID"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	for d := 0; d < p.DimRows; d++ {
		s.MustInsert("Dim", value.Row{
			value.NewInt(int64(d)), value.NewString(fmt.Sprintf("dim%05d", d)),
		})
	}
	r := rand.New(rand.NewSource(p.Seed))
	groups := p.Groups
	if groups < 1 {
		groups = 1
	}
	for f := 0; f < p.FactRows; f++ {
		var dim int64
		if r.Float64() < p.MatchFraction {
			dim = int64(r.Intn(p.DimRows))
		} else {
			dim = int64(p.DimRows + f) // no partner
		}
		s.MustInsert("Fact", value.Row{
			value.NewInt(int64(f)),
			value.NewInt(dim),
			value.NewInt(int64(f % groups)),
			value.NewInt(int64(r.Intn(100))),
		})
	}
	return s, nil
}

// SweepQueryGroupByDim groups the join result by the dimension key — the
// transformable pattern (FD2 via Dim's primary key).
const SweepQueryGroupByDim = `
	SELECT D.DimID, D.Label, SUM(F.V), COUNT(F.V)
	FROM Fact F, Dim D
	WHERE F.DimID = D.DimID
	GROUP BY D.DimID, D.Label`

// SweepQueryGroupByFact groups the join result by the fact-side group key —
// eager aggregation groups on (GroupID, DimID), the Figure 8 pattern when
// Groups is large and the join is selective.
const SweepQueryGroupByFact = `
	SELECT F.GroupID, SUM(F.V)
	FROM Fact F, Dim D
	WHERE F.DimID = D.DimID
	GROUP BY F.GroupID`

// PartSupplier materializes the Example 2 schema.
func PartSupplier(parts, suppliers int) (*storage.Store, error) {
	s := storage.NewStore(schema.NewCatalog())
	if err := s.CreateTable(&schema.Table{
		Name: "Supplier",
		Columns: []schema.Column{
			{Name: "SupplierNo", Type: value.KindInt},
			{Name: "Name", Type: value.KindString},
			{Name: "Address", Type: value.KindString},
		},
		Keys: []schema.Key{{Columns: []string{"SupplierNo"}, Primary: true}},
	}); err != nil {
		return nil, err
	}
	if err := s.CreateTable(&schema.Table{
		Name: "Part",
		Columns: []schema.Column{
			{Name: "ClassCode", Type: value.KindInt},
			{Name: "PartNo", Type: value.KindInt},
			{Name: "PartName", Type: value.KindString},
			{Name: "SupplierNo", Type: value.KindInt},
		},
		Keys:        []schema.Key{{Columns: []string{"ClassCode", "PartNo"}, Primary: true}},
		ForeignKeys: []schema.ForeignKey{{Columns: []string{"SupplierNo"}, RefTable: "Supplier"}},
	}); err != nil {
		return nil, err
	}
	for sp := 0; sp < suppliers; sp++ {
		s.MustInsert("Supplier", value.Row{
			value.NewInt(int64(sp)), value.NewString(fmt.Sprintf("S%04d", sp)),
			value.NewString(fmt.Sprintf("%d Main St", sp)),
		})
	}
	for pt := 0; pt < parts; pt++ {
		s.MustInsert("Part", value.Row{
			value.NewInt(int64(pt % 50)), value.NewInt(int64(pt)),
			value.NewString(fmt.Sprintf("part%05d", pt)),
			value.NewInt(int64(pt % suppliers)),
		})
	}
	return s, nil
}
