package gbj

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/value"
)

// LoadCSV bulk-inserts rows from CSV data into an existing table. Fields
// are converted by the table's column types; empty fields and the literal
// "NULL" load as SQL NULL. With header set, the first record names the
// target columns (any order, possibly a subset — unnamed columns load as
// NULL — but each at most once); without it, records must match the table's
// declaration order.
// Returns the number of rows inserted; the first failing row aborts the
// load with its line number.
func (e *Engine) LoadCSV(table string, r io.Reader, header bool) (inserted int, err error) {
	err = e.write([]string{table}, func() error {
		def, err := e.store.Catalog().Table(table)
		if err != nil {
			return err
		}
		reader := csv.NewReader(r)
		reader.FieldsPerRecord = -1

		positions := make([]int, 0, len(def.Columns))
		line := 0
		if header {
			record, err := reader.Read()
			if err != nil {
				return fmt.Errorf("gbj: reading CSV header: %w", err)
			}
			line++
			named := make([]bool, len(def.Columns))
			for _, name := range record {
				idx := def.ColumnIndex(strings.TrimSpace(name))
				if idx < 0 {
					return fmt.Errorf("gbj: CSV header names unknown column %q of %s", name, table)
				}
				if named[idx] {
					return fmt.Errorf("gbj: CSV header names column %q of %s twice", name, table)
				}
				named[idx] = true
				positions = append(positions, idx)
			}
		} else {
			for i := range def.Columns {
				positions = append(positions, i)
			}
		}

		for {
			record, err := reader.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("gbj: reading CSV line %d: %w", line+1, err)
			}
			line++
			if len(record) != len(positions) {
				return fmt.Errorf("gbj: CSV line %d has %d fields, want %d", line, len(record), len(positions))
			}
			row := make(value.Row, len(def.Columns))
			for i := range row {
				row[i] = value.Null
			}
			for i, field := range record {
				col := def.Columns[positions[i]]
				v, err := parseCSVField(field, col.Type)
				if err != nil {
					return fmt.Errorf("gbj: CSV line %d, column %s: %w", line, col.Name, err)
				}
				row[positions[i]] = v
			}
			if err := e.store.Insert(table, row); err != nil {
				return fmt.Errorf("gbj: CSV line %d: %w", line, err)
			}
			inserted++
		}
		return nil
	})
	return inserted, err
}

// parseCSVField converts one CSV field to the column's type.
func parseCSVField(field string, kind value.Kind) (value.Value, error) {
	trimmed := strings.TrimSpace(field)
	if trimmed == "" || strings.EqualFold(trimmed, "NULL") {
		return value.Null, nil
	}
	switch kind {
	case value.KindInt:
		i, err := strconv.ParseInt(trimmed, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("bad integer %q", field)
		}
		return value.NewInt(i), nil
	case value.KindFloat:
		f, err := strconv.ParseFloat(trimmed, 64)
		if err != nil {
			return value.Null, fmt.Errorf("bad number %q", field)
		}
		return value.NewFloat(f), nil
	case value.KindBool:
		b, err := strconv.ParseBool(strings.ToLower(trimmed))
		if err != nil {
			return value.Null, fmt.Errorf("bad boolean %q", field)
		}
		return value.NewBool(b), nil
	default:
		// Strings keep the raw (untrimmed) field.
		return value.NewString(field), nil
	}
}
