package gbj_test

import (
	"context"
	"fmt"
	"strings"

	gbj "repro"
)

// Example demonstrates the paper's Example 1: a COUNT per department,
// transparently evaluated with the group-by pushed below the join.
func Example() {
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30));
		CREATE TABLE Employee (
			EmpID INTEGER PRIMARY KEY,
			DeptID INTEGER,
			FOREIGN KEY (DeptID) REFERENCES Department);
		INSERT INTO Department VALUES (1, 'Sales'), (2, 'Eng');
		INSERT INTO Employee VALUES (1, 1), (2, 1), (3, 2)`)

	res, err := e.QueryOptionsContext(context.Background(), `
		SELECT D.DeptID, D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name
		ORDER BY DeptID`, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, row := range res.Rows {
		fmt.Printf("%v %v %v\n", row[0], row[1], row[2])
	}
	// Output:
	// 1 Sales 2
	// 2 Eng 1
}

// ExampleEngine_Explain shows the optimizer's decision trace: the Section 3
// normalization, the TestFD answer, and the chosen plan.
func ExampleEngine_Explain() {
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30));
		CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, DeptID INTEGER);
		INSERT INTO Department VALUES (1, 'Sales');
		INSERT INTO Employee VALUES (1, 1), (2, 1)`)

	text, err := e.Explain(`
		SELECT D.DeptID, D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name`)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "answer:") || strings.HasPrefix(line, "R1 =") {
			fmt.Println(line)
		}
	}
	// Output:
	// R1 = {E}, R2 = {D}
	// answer: YES — FD1 and FD2 hold in the join result
}

// ExampleEngine_Configure forces each plan in turn for comparison runs.
func ExampleEngine_Configure() {
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE D (id INTEGER PRIMARY KEY, name CHARACTER(10));
		CREATE TABLE E (id INTEGER PRIMARY KEY, d INTEGER);
		INSERT INTO D VALUES (1, 'a');
		INSERT INTO E VALUES (10, 1), (11, 1)`)
	const q = `SELECT D.id, COUNT(E.id) FROM E, D WHERE E.d = D.id GROUP BY D.id`

	_ = e.Configure(gbj.Config{Mode: gbj.ModeAlways}) // group before join
	r1, _ := e.QueryOptionsContext(context.Background(), q, nil)
	_ = e.Configure(gbj.Config{Mode: gbj.ModeNever}) // group after join
	r2, _ := e.QueryOptionsContext(context.Background(), q, nil)
	fmt.Println(len(r1.Rows) == len(r2.Rows))
	// Output:
	// true
}

// ExampleEngine_QueryOptionsContext binds host variables (the paper's H set).
func ExampleEngine_QueryOptionsContext() {
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE UserAccount (
			UserId INTEGER, Machine CHARACTER(20),
			PRIMARY KEY (UserId, Machine));
		INSERT INTO UserAccount VALUES (1, 'dragon'), (2, 'tiger')`)
	res, err := e.QueryOptionsContext(context.Background(),
		`SELECT U.UserId FROM UserAccount U WHERE U.Machine = :m`,
		&gbj.QueryOptions{Params: map[string]any{"m": "dragon"}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Rows[0][0])
	// Output:
	// 1
}

// printDecision prints the TestFD answer and the choice of an EXPLAIN text,
// the choice without its parenthesized reason.
func printDecision(explain string) {
	for _, line := range strings.Split(explain, "\n") {
		if strings.HasPrefix(line, "answer:") || strings.HasPrefix(line, "chosen:") {
			choice, _, _ := strings.Cut(line, " (")
			fmt.Println(choice)
		}
	}
}

// printRows prints a result one row to a line.
func printRows(res *gbj.Result) {
	for _, row := range res.Rows {
		fmt.Println(row...)
	}
}

// printerEngine loads the paper's UserAccount/PrinterAuth/Printer schema of
// Examples 3 and 5 (Sections 6.3 and 8): four accounts on two machines, each
// authorized on two of three printers.
func printerEngine() *gbj.Engine {
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE UserAccount (
			UserId INTEGER,
			Machine CHARACTER(20),
			UserName CHARACTER(30),
			PRIMARY KEY (UserId, Machine));
		CREATE TABLE Printer (
			PNo INTEGER PRIMARY KEY,
			Speed INTEGER,
			Make CHARACTER(20));
		CREATE TABLE PrinterAuth (
			UserId INTEGER,
			Machine CHARACTER(20),
			PNo INTEGER,
			Usage INTEGER,
			PRIMARY KEY (UserId, Machine, PNo));
		INSERT INTO Printer VALUES (1, 10, 'ACME'), (2, 20, 'ACME'), (3, 30, 'ACME');
		INSERT INTO UserAccount VALUES
			(1, 'dragon', 'ann'), (2, 'dragon', 'bob'), (3, 'tiger', 'cy'), (4, 'tiger', 'di');
		INSERT INTO PrinterAuth VALUES
			(1, 'dragon', 1, 100), (1, 'dragon', 2, 50),
			(2, 'dragon', 2, 70), (2, 'dragon', 3, 5),
			(3, 'tiger', 1, 40), (3, 'tiger', 3, 60),
			(4, 'tiger', 1, 10), (4, 'tiger', 2, 20)`)
	return e
}

// Example_example3 is the paper's Example 3 (Section 6.3): per user on
// 'dragon', the total printer usage and the fastest and slowest printer.
// TestFD proves the group-by may move below the join with Printer; on data
// this small the cost model would not bother, so ModeAlways makes it.
func Example_example3() {
	e := printerEngine()
	_ = e.Configure(gbj.Config{Mode: gbj.ModeAlways})
	const query = `
		SELECT U.UserId, U.UserName, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
		FROM UserAccount U, PrinterAuth A, Printer P
		WHERE U.UserId = A.UserId AND U.Machine = A.Machine
		      AND A.PNo = P.PNo AND U.Machine = 'dragon'
		GROUP BY U.UserId, U.UserName
		ORDER BY UserId`
	plan, err := e.Explain(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printDecision(plan)
	res, err := e.QueryOptionsContext(context.Background(), query, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printRows(res)
	// Output:
	// answer: YES — FD1 and FD2 hold in the join result
	// chosen: transformed plan
	// 1 ann 150 20 10
	// 2 bob 75 30 20
}

// Example_example5 is the paper's Example 5 (Section 8): the same question
// through the aggregated view UserInfo. The reverse transformation merges the
// view into the outer query, so the join runs before the group-by.
func Example_example5() {
	e := printerEngine()
	e.MustExec(`
		CREATE VIEW UserInfo (UserId, Machine, TotUsage, MaxSpeed, MinSpeed) AS
		SELECT A.UserId, A.Machine, SUM(A.Usage), MAX(P.Speed), MIN(P.Speed)
		FROM PrinterAuth A, Printer P
		WHERE A.PNo = P.PNo
		GROUP BY A.UserId, A.Machine`)
	const query = `
		SELECT U.UserId, U.UserName, I.TotUsage, I.MaxSpeed, I.MinSpeed
		FROM UserInfo I, UserAccount U
		WHERE I.UserId = U.UserId AND I.Machine = U.Machine
		      AND U.Machine = 'dragon'
		ORDER BY UserId`
	plan, err := e.Explain(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printDecision(plan)
	res, err := e.QueryOptionsContext(context.Background(), query, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printRows(res)
	// Output:
	// answer: YES — join-before-group-by is equivalent
	// chosen: flat plan
	// 1 ann 150 20 10
	// 2 bob 75 30 20
}

// Example_derivedTable is the forward transformation over a derived table:
// the outer query sums a monthly rollup per customer, and the optimizer
// proves from the rollup's inherited key that the outer group-by may move
// below the join with Customer (ModeAlways: the data is too small to pay).
func Example_derivedTable() {
	e := gbj.New()
	_ = e.Configure(gbj.Config{Mode: gbj.ModeAlways})
	e.MustExec(`
		CREATE TABLE Customer (
			CustID INTEGER,
			Region CHARACTER(10),
			CustName CHARACTER(30),
			PRIMARY KEY (CustID, Region));
		CREATE TABLE OrderLine (
			LineID INTEGER PRIMARY KEY,
			CustID INTEGER,
			Region CHARACTER(10),
			Month INTEGER,
			Amount INTEGER);
		INSERT INTO Customer VALUES (1, 'east', 'Acme'), (2, 'west', 'Bolt');
		INSERT INTO OrderLine VALUES
			(1, 1, 'east', 1, 10), (2, 1, 'east', 1, 20), (3, 1, 'east', 2, 5),
			(4, 2, 'west', 1, 7), (5, 2, 'west', 3, 8), (6, 2, 'west', 3, 9)`)
	const query = `
		SELECT C.CustID, C.Region, C.CustName, SUM(M.MonthTotal), COUNT(M.MonthTotal)
		FROM (SELECT O.CustID AS CustID, O.Region AS Region, O.Month AS Month,
		             SUM(O.Amount) AS MonthTotal
		      FROM OrderLine O
		      GROUP BY O.CustID, O.Region, O.Month) M,
		     Customer C
		WHERE M.CustID = C.CustID AND M.Region = C.Region
		GROUP BY C.CustID, C.Region, C.CustName
		ORDER BY CustID`
	plan, err := e.Explain(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printDecision(plan)
	res, err := e.QueryOptionsContext(context.Background(), query, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printRows(res)
	// Output:
	// answer: YES — FD1 and FD2 hold in the join result
	// chosen: transformed plan
	// 1 east Acme 35 2
	// 2 west Bolt 24 2
}

// Example_figure8 is the paper's Figure 8 shape: a join that keeps few rows.
// The transformation is valid, but grouping every order line before a join
// that discards almost all of them costs more, so the optimizer keeps the
// standard plan.
func Example_figure8() {
	e := gbj.New()
	e.MustExec(`
		CREATE TABLE Product (ProdID INTEGER PRIMARY KEY, ProdName CHARACTER(40));
		CREATE TABLE OrderLine (
			LineID INTEGER PRIMARY KEY,
			ProdID INTEGER,
			Amount INTEGER,
			FOREIGN KEY (ProdID) REFERENCES Product)`)
	var b strings.Builder
	for p := 0; p < 100; p++ {
		fmt.Fprintf(&b, "INSERT INTO Product VALUES (%d, 'Product-%02d');\n", p, p)
	}
	for l := 0; l < 2000; l++ {
		fmt.Fprintf(&b, "INSERT INTO OrderLine VALUES (%d, %d, %d);\n", l, l%100, 1+l%7)
	}
	e.MustExec(b.String())
	const query = `
		SELECT P.ProdID, P.ProdName, SUM(L.Amount)
		FROM OrderLine L, Product P
		WHERE L.ProdID = P.ProdID AND P.ProdName = 'Product-42'
		GROUP BY P.ProdID, P.ProdName`
	plan, err := e.Explain(query)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printDecision(plan)
	res, err := e.QueryOptionsContext(context.Background(), query, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printRows(res)
	// Output:
	// answer: YES — FD1 and FD2 hold in the join result
	// chosen: standard plan
	// 42 Product-42 78
}

// ExampleEngine_EstimateDistributed is the Section 7 communication analysis:
// with Employee and Department at different sites and the join at
// Department's, the standard plan ships every employee row and the
// transformed plan one row per department — the reduction is the fan-out.
func ExampleEngine_EstimateDistributed() {
	const query = `
		SELECT D.DeptID, D.Name, COUNT(E.EmpID)
		FROM Employee E, Department D
		WHERE E.DeptID = D.DeptID
		GROUP BY D.DeptID, D.Name`
	for _, scale := range []struct{ emps, depts int }{{100, 10}, {1000, 10}, {1000, 1000}} {
		e := gbj.New()
		e.MustExec(`
			CREATE TABLE Department (DeptID INTEGER PRIMARY KEY, Name CHARACTER(30));
			CREATE TABLE Employee (EmpID INTEGER PRIMARY KEY, DeptID INTEGER)`)
		var b strings.Builder
		for d := 0; d < scale.depts; d++ {
			fmt.Fprintf(&b, "INSERT INTO Department VALUES (%d, 'D%d');\n", d, d)
		}
		for emp := 0; emp < scale.emps; emp++ {
			fmt.Fprintf(&b, "INSERT INTO Employee VALUES (%d, %d);\n", emp, emp%scale.depts)
		}
		e.MustExec(b.String())
		est, err := e.EstimateDistributed(query)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%d employees, %d departments: standard ships %.0f rows, transformed %.0f\n",
			scale.emps, scale.depts, est.StandardRows, est.TransformedRows)
	}
	// Output:
	// 100 employees, 10 departments: standard ships 100 rows, transformed 10
	// 1000 employees, 10 departments: standard ships 1000 rows, transformed 10
	// 1000 employees, 1000 departments: standard ships 1000 rows, transformed 1000
}
