package exec

import (
	"slices"
	"sort"

	"repro/internal/value"
)

// The grace path of hashJoinOp: what the join does when the budget refuses
// its build table and a spill manager is present. Both sides are
// hash-partitioned to temp files and each partition pair is joined on its
// own, re-partitioning with a rehash when a partition's table is refused
// again. The pipeline below the refused stage runs as one in-order chunk and
// its rows go to the partition files as they are emitted. Probe records carry
// their arrival seq; a probe row lands in exactly one partition and partition
// files keep build order, so a stable sort of the collected matches by probe
// seq is exactly the in-memory output order.

// Grace hash join parameters: the partition fan-out and the recursion bound
// after which a partition is built in memory regardless of the budget (pure
// key skew — a single join key bigger than the whole budget — cannot be
// split by rehashing, and correctness beats accounting).
const (
	graceParts    = 8
	graceMaxDepth = 3
)

// gracePartition assigns a canonical join key to one of graceParts
// partitions, salted by recursion depth so an oversized partition rehashes
// differently on the next level (FNV-1a with a depth-perturbed basis).
func gracePartition(key []byte, depth int) int {
	h := uint64(1469598103934665603) + uint64(depth)*0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % graceParts)
}

// rowFeed hands a level's probe records, in order, to fn.
type rowFeed func(fn func(spillRow) error) error

// graceJoin runs the grace join over the refused table's build rows and the
// left side, which left hands over row by row in order — the rows go to the
// partition files as they come — and returns the joined rows in output order.
// Every partition file is swept before it returns.
func (j *hashJoinOp) graceJoin(left func(emitFn) error) (out []value.Row, err error) {
	defer func() {
		if derr := discardAll(j.files); derr != nil && err == nil {
			out, err = nil, derr
		}
	}()
	var build []spillRow // build rows under their insertion seq
	for _, row := range j.table.rows {
		if err := j.gov.tick(); err != nil {
			return nil, err
		}
		if !anyNullAt(row, j.rcols) {
			build = append(build, spillRow{seq: int64(len(build)), row: row})
		}
	}
	var matches []spillRow // joined rows under their probe seq
	err = j.grace(build, func(fn func(spillRow) error) error {
		seq := int64(-1)
		return left(func(row value.Row) error {
			seq++
			return fn(spillRow{seq: seq, row: row})
		})
	}, 0, &matches)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(matches, func(a, b int) bool { return matches[a].seq < matches[b].seq })
	out = make([]value.Row, len(matches))
	for i, m := range matches {
		out[i] = m.row
	}
	return out, nil
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

// newPartitionFiles makes one spill file per partition, all tracked for the
// sweep at the end of graceJoin.
func (j *hashJoinOp) newPartitionFiles(tag string) []*spillFile {
	parts := make([]*spillFile, graceParts)
	for i := range parts {
		parts[i] = newSpillFile(j.mgr, j.gov, j.metrics, j.where, tag)
	}
	j.files = append(j.files, parts...)
	if j.metrics != nil {
		j.metrics.SpillParts.Add(graceParts)
	}
	return parts
}

// grace is one level of the grace join: the build rows and the probe stream
// are scattered to partition files by the depth-salted key hash, then each
// partition pair is joined and discarded.
func (j *hashJoinOp) grace(build []spillRow, probe rowFeed, depth int, matches *[]spillRow) error {
	bparts := j.newPartitionFiles("build")
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
	pparts := j.newPartitionFiles("probe")
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
	if err != nil {
		return err
	}
	for p := range bparts {
		if err := j.joinPartition(bparts[p], pparts[p], depth, matches); err != nil {
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
// probe file. A partition whose table alone is refused goes down one grace
// level; at graceMaxDepth it is built uncharged instead.
func (j *hashJoinOp) joinPartition(bf, pf *spillFile, depth int, matches *[]spillRow) error {
	if err := bf.startRead(); err != nil {
		return err
	}
	var build []spillRow
	var rows []value.Row
	for {
		sr, ok, err := bf.readRecord()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := j.gov.tick(); err != nil {
			return err
		}
		build, rows = append(build, sr), append(rows, sr.row)
	}
	if err := pf.startRead(); err != nil {
		return err
	}
	j.table = &joinTable{cols: j.rcols, adm: admissionFor(j.gov, j.mgr, j.where), metrics: j.metrics}
	err := j.table.build(rows, 1)
	if err == errRefused && depth < graceMaxDepth {
		return j.grace(build, pf.each, depth+1, matches)
	}
	if err == errRefused {
		j.table.adm.mode = admitForce
		err = j.table.build(rows, 1)
	}
	if err != nil {
		return err
	}
	var seq int64 // of the probe record being joined
	probe := j.probeInto(make(value.Row, j.width), func(joined value.Row) error {
		*matches = append(*matches, spillRow{seq: seq, row: slices.Clone(joined)})
		return nil
	})
	err = pf.each(func(sr spillRow) error {
		seq = sr.seq
		return probe(sr.row)
	})
	if err != nil {
		return err
	}
	j.table.adm.release()
	return nil
}
