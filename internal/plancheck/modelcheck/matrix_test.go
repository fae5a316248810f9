package modelcheck

import "testing"

// TestMatrix runs the oracle matrix, one subtest per cell: `-run
// 'TestMatrix/^chaos$'` selects one. A failure names the cell, the query, the
// variant and the fault schedule.
func TestMatrix(t *testing.T) {
	for i := range Cells {
		c := &Cells[i]
		t.Run(c.Name, func(t *testing.T) {
			tally, err := c.Run(testing.Short())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %v", c.Name, tally)
		})
	}
}
