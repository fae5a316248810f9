package main

// Output checking. At set-up every read text's reference result is
// computed from the standard (group-after-join) plan through serial row
// exec.Run over a shadow store holding the same rows; every measured
// response is fingerprinted and compared. Reads of the writable kv table
// are checked by its val = 2*grp invariant instead.

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/sql"
	"repro/internal/storage"
)

// fingerprint identifies a result: its row count and a hash that depends
// on row order for ordered queries and not otherwise.
type fingerprint struct {
	rows int
	hash uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashUint(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(u>>(8*i)))
	}
	return h
}

// asFloat widens any numeric cell the engine, the wire or the executor
// can produce.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

func hashCell(h uint64, v any) uint64 {
	switch x := v.(type) {
	case nil:
		return hashByte(h, 0)
	case string:
		h = hashByte(h, 's')
		for i := 0; i < len(x); i++ {
			h = hashByte(h, x[i])
		}
		return hashByte(h, 0xff)
	case bool:
		if x {
			return hashByte(h, 't')
		}
		return hashByte(h, 'f')
	}
	// Numbers hash by value, not by type: a float SUM that is integral
	// reaches the client as a JSON integer, so 3 and 3.0 must agree.
	if f, ok := asFloat(v); ok {
		return hashUint(hashByte(h, 'n'), math.Float64bits(f))
	}
	return hashByte(h, '?')
}

// fingerprintRows fingerprints a result in the engine's Go-native values.
func fingerprintRows(rows [][]any, ordered bool) fingerprint {
	fp := fingerprint{rows: len(rows), hash: fnvOffset}
	for _, row := range rows {
		h := uint64(fnvOffset)
		for _, v := range row {
			h = hashCell(h, v)
		}
		fp.add(h, ordered)
	}
	return fp
}

func (fp *fingerprint) add(rowHash uint64, ordered bool) {
	if ordered {
		fp.hash = hashUint(fp.hash, rowHash)
	} else {
		fp.hash += rowHash * fnvPrime
	}
}

// shadow is the benchmark's own store with the dataset's rows: the source
// of reference results, and what the traced run stages queries against.
type shadow struct {
	store *storage.Store
	opt   *core.Optimizer
}

// newShadow creates the dataset's tables in a fresh store, without rows.
func newShadow(d *dataset) (*shadow, error) {
	store := storage.NewStore(schema.NewCatalog())
	for _, t := range d.tables {
		if err := store.CreateTable(t.def); err != nil {
			return nil, fmt.Errorf("shadow store: %w", err)
		}
	}
	return &shadow{store: store, opt: core.NewOptimizer(store)}, nil
}

// load inserts the dataset's rows and returns how many it inserted.
func (s *shadow) load(d *dataset) (int, error) {
	n := 0
	for _, t := range d.tables {
		for _, r := range t.rows {
			if err := s.store.Insert(t.def.Name, r); err != nil {
				return n, fmt.Errorf("shadow store: %w", err)
			}
			n++
		}
	}
	return n, nil
}

// reference runs text's standard plan through the serial row executor.
func (s *shadow) reference(text string, ordered bool) (fingerprint, error) {
	q, err := sql.ParseQuery(text)
	if err != nil {
		return fingerprint{}, err
	}
	plan, err := s.opt.Planner().PlanQuery(q)
	if err != nil {
		return fingerprint{}, err
	}
	res, err := exec.Run(plan, s.store, nil)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprintRows(convert(res.Rows), ordered), nil
}

// verifier checks measured responses against the references.
type verifier struct {
	want map[string]fingerprint
}

// newVerifier computes the reference fingerprint of every read text of
// the workload that is not checked by the kv invariant.
func newVerifier(w *workload, s *shadow) (*verifier, error) {
	v := &verifier{want: make(map[string]fingerprint)}
	for _, q := range w.queries {
		if q.kvCheck != nil {
			continue
		}
		for _, text := range q.variants {
			fp, err := s.reference(text, q.ordered)
			if err != nil {
				return nil, fmt.Errorf("reference for %s: %w", q.id, err)
			}
			v.want[text] = fp
		}
	}
	return v, nil
}

// ok reports whether rows is the right answer to the read op.
func (v *verifier) ok(o op, rows [][]any) bool {
	if o.q.kvCheck != nil {
		if len(rows) == 0 {
			return false
		}
		for _, row := range rows {
			if !o.q.kvCheck(row) {
				return false
			}
		}
		return true
	}
	return fingerprintRows(rows, o.q.ordered) == v.want[o.text()]
}
