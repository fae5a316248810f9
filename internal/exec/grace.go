package exec

import (
	"repro/internal/obs"
	"repro/internal/paged"
	"repro/internal/storage"
	"repro/internal/value"
)

// The grace paths: what a hash join or a hash grouping does when the budget
// refuses its table and a spill manager is present. Rows go to partition
// files by their key's hash under their arrival seq, and each partition is
// handled on its own, one level deeper — re-partitioned by the next field of
// the hash when its table is refused again. The input runs as one in-order
// chunk and its rows go to the files as they are emitted. Output order is
// restored from the seqs by the external sorter (spill.go): a partition's
// joined rows are in probe-seq order, a level's groups in the seq order of
// their first rows, so each is one run, and the merge of the runs by seq is
// exactly the in-memory order.

// Grace parameters: the partition fan-out — graceBits of the key's hash per
// level — and the recursion bound after which a partition is built in memory
// regardless of the budget (pure key skew — a single join key bigger than the
// whole budget — cannot be split by rehashing, and correctness beats
// accounting).
const (
	graceBits     = 3
	graceParts    = 1 << graceBits
	graceMaxDepth = 3
)

// gracePartition assigns a canonical key to one of graceParts partitions at
// recursion depth depth: the depth's own field of the key's paged.Hash, read
// from the top down, so keys that shared a partition at one level spread over
// all of them at the next. The stores' slots come from the hash's low bits.
func gracePartition(key []byte, depth int) int {
	return int(paged.Hash(key)>>(32-graceBits*(depth+1))) & (graceParts - 1)
}

// rowFeed hands a level's records, in order, to fn.
type rowFeed func(fn func(spillRow) error) error

// numbered is the rowFeed of an in-order run: each row under its arrival seq.
func numbered(each func(emitFn) error) rowFeed {
	return func(fn func(spillRow) error) error {
		seq := int64(-1)
		return each(func(row value.Row) error {
			seq++
			return fn(spillRow{seq: seq, row: row})
		})
	}
}

// graceJoin runs the grace join over the refused table's build rows and the
// left side, which left hands over row by row in order — the rows go to the
// partition files as they come — and returns the joined rows in output order:
// the merge of the partitions' runs. Every partition file is swept before it
// returns.
func (j *hashJoinOp) graceJoin(left func(emitFn) error) (opened, error) {
	j.table.adm.release() // the refused table's rows go to the partitions
	var build []spillRow  // build rows under their insertion seq
	for _, row := range j.table.rows {
		if err := j.gov.tick(); err != nil {
			return opened{}, err
		}
		if !anyNullAt(row, j.rcols) {
			build = append(build, spillRow{seq: int64(len(build)), row: row})
		}
	}
	x := newSorter(j.gov, j.mgr, j.metrics, j.where, 1, bySeq)
	err := j.grace(build, numbered(left), 0, x)
	if derr := discardAll(j.files); err == nil {
		err = derr
	}
	return x.finish(err)
}

// each is a partition file's records as a rowFeed.
func (s *spillFile) each(fn func(spillRow) error) error {
	for {
		sr, ok, err := s.readRecord()
		if !ok || err != nil {
			return err
		}
		if err := fn(sr); err != nil {
			return err
		}
	}
}

// newPartitionFiles makes one spill file per partition, each tracked in files
// for the sweep at the end of the operator's grace path.
func newPartitionFiles(mgr *storage.SpillManager, gov *governor, metrics *obs.OpMetrics, where, tag string, files *[]*spillFile) []*spillFile {
	parts := make([]*spillFile, graceParts)
	for i := range parts {
		parts[i] = newSpillFile(mgr, gov, metrics, where, tag)
	}
	*files = append(*files, parts...)
	if metrics != nil {
		metrics.SpillParts.Add(graceParts)
	}
	return parts
}

// sealAll seals the partition files of a finished scatter, so the ones
// waiting their turn hold no write buffer.
func sealAll(parts ...[]*spillFile) error {
	for _, files := range parts {
		for _, f := range files {
			if err := f.seal(); err != nil {
				return err
			}
		}
	}
	return nil
}

// grace is one level of the grace join: the build rows and the probe stream
// are scattered to partition files by the depth's hash field, then each
// partition pair is joined into x and discarded.
func (j *hashJoinOp) grace(build []spillRow, probe rowFeed, depth int, x *extSorter) error {
	bparts := newPartitionFiles(j.mgr, j.gov, j.metrics, j.where, "build", &j.files)
	var key []byte
	for _, sr := range build {
		if err := j.gov.tick(); err != nil {
			return err
		}
		key = appendKey(key[:0], sr.row, j.rcols)
		p := gracePartition(key, depth)
		if err := bparts[p].writeRecord(sr.seq, sr.row); err != nil {
			return err
		}
	}
	pparts := newPartitionFiles(j.mgr, j.gov, j.metrics, j.where, "probe", &j.files)
	err := probe(func(sr spillRow) error {
		if err := j.gov.tick(); err != nil {
			return err
		}
		if anyNullAt(sr.row, j.lcols) {
			return nil
		}
		key = appendKey(key[:0], sr.row, j.lcols)
		return pparts[gracePartition(key, depth)].writeRecord(sr.seq, sr.row)
	})
	if err == nil {
		err = sealAll(bparts, pparts)
	}
	if err != nil {
		return err
	}
	for p := range bparts {
		if err := j.joinPartition(bparts[p], pparts[p], depth, x); err != nil {
			return err
		}
		if err := bparts[p].discard(); err != nil {
			return err
		}
		if err := pparts[p].discard(); err != nil {
			return err
		}
	}
	return nil
}

// joinPartition builds one partition's table and probes it with the matching
// probe file, whose records are in seq order, so the joined rows are one run
// of x. A partition whose table alone is refused goes down one grace level; at
// graceMaxDepth it is built uncharged instead.
func (j *hashJoinOp) joinPartition(bf, pf *spillFile, depth int, x *extSorter) error {
	if err := bf.startRead(); err != nil {
		return err
	}
	var build []spillRow
	var rows []value.Row
	err := bf.each(func(sr spillRow) error {
		build, rows = append(build, sr), append(rows, sr.row)
		return j.gov.tick()
	})
	if err != nil {
		return err
	}
	if err := pf.startRead(); err != nil {
		return err
	}
	j.table = &joinTable{cols: j.rcols, adm: admissionFor(j.gov, j.mgr, j.where), metrics: j.metrics}
	err = j.table.build(rows, 1)
	if err == errRefused {
		j.table.adm.release()
		if depth < graceMaxDepth {
			return j.grace(build, pf.each, depth+1, x)
		}
		j.table.adm.mode = admitForce
		err = j.table.build(rows, 1)
	}
	if err != nil {
		return err
	}
	return x.addRun(func(run *spillFile) error {
		var seq int64 // of the probe record being joined
		probe := j.probeInto(make(value.Row, j.width), func(joined value.Row) error {
			return run.writeRecord(seq, joined)
		})
		return pf.each(func(sr spillRow) error {
			seq = sr.seq
			return probe(sr.row)
		})
	}, j.table.adm.release)
}

// spilledGroups is the hash grouping of a spill-capable run with grouping
// columns: hybrid hash aggregation over the grace partitioning. A level's
// records fold into one table as they come. Once the budget refuses a group
// the table takes no new one, and it keeps the bytes it holds: rows of its
// groups go on folding into it, and every other row goes to the partition
// file of its key under its arrival seq. A group lives whole in one table, so
// its states fold its rows in input order, and the output is byte-identical
// to the in-memory run's.
type spilledGroups struct {
	*groupCore
	files []*spillFile // every partition file, swept when the grouping ends
	out   *extSorter   // the finished groups of refused levels, a run per level
}

// level groups one level's records — the input numbered, or a partition
// file — into one table. A table the budget admits whole at depth 0 is
// returned, the grouping's output as on any other run. Any other table's
// groups are finished, in id order — the seq order of their first rows — as
// one run of out, and its bytes released; then each partition is grouped one
// level deeper. At graceMaxDepth a partition's table is uncharged.
func (s *spilledGroups) level(feed rowFeed, depth int) (*groupTable, error) {
	t, err := s.newTable()
	if err != nil {
		return nil, err
	}
	if depth == graceMaxDepth {
		t.adm.mode = admitForce
	}
	var firsts []int64     // by group id: the seq of the group's first row
	var parts []*spillFile // made at the first refusal
	err = feed(func(sr spillRow) error {
		if err := s.gov.tick(); err != nil {
			return err
		}
		id, err := t.rowGroup(sr.row)
		if err == errRefused { // t.probe is the row's key
			if parts == nil {
				s.ran("external")
				parts = newPartitionFiles(s.mgr, s.gov, s.metrics, s.where, "group", &s.files)
			}
			return parts[gracePartition(t.probe, depth)].writeRecord(sr.seq, sr.row)
		}
		if err != nil {
			return err
		}
		if id == len(firsts) {
			firsts = append(firsts, sr.seq)
		}
		return t.feed(id, sr.row)
	})
	if err != nil {
		return nil, err
	}
	if err := sealAll(parts); err != nil {
		return nil, err
	}
	s.recordBuild(t.n, t.index.KeyBytes())
	if parts == nil && depth == 0 {
		return t, nil
	}
	err = s.out.addRun(func(run *spillFile) error {
		results, row := make(value.Row, len(s.aggs)), make(value.Row, 0, s.width())
		for id := 0; id < t.n; id++ {
			var err error
			if row, err = t.appendRow(id, results, row[:0]); err != nil {
				return err
			}
			if err := run.writeRecord(firsts[id], row); err != nil {
				return err
			}
		}
		return nil
	}, t.adm.release)
	if err != nil {
		return nil, err
	}
	for _, pf := range parts {
		if err := pf.startRead(); err != nil {
			return nil, err
		}
		if _, err := s.level(pf.each, depth+1); err != nil {
			return nil, err
		}
		if err := pf.discard(); err != nil {
			return nil, err
		}
	}
	return nil, nil
}
