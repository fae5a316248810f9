// Spill-to-disk execution. When Options.Spill supplies a temp-file manager
// and a memory budget is set, the state stores admit by refusal instead of
// abort (store.go), and a refusal becomes a partitioning decision —
// external merge sort (sorted runs + k-way merge), and the grace paths of
// hash aggregation and the hash join (grace.go: the rows a refused table
// cannot take go to partition files, recursing on oversized partitions) —
// instead of a *ResourceError. The
// paper's premise survives memory pressure: group-by placement stays a cost
// choice, not a survival choice.
//
// Spilled results are byte-identical to in-memory execution. Spilled
// records carry their arrival sequence number, and each external path
// re-establishes the exact in-memory output order from those sequences:
// the external sort tie-breaks on arrival order (≡ stable sort), the grace
// join orders its output stably by probe seq (≡ probe order with
// build-insertion-order matches), and the spilled grouping orders groups
// by their first row's sequence (≡ hash first-appearance order).
//
// Disk I/O is fault-injectable (fault.DiskStep fires per record written,
// read and per file close) and any failure — injected or real — aborts the
// operator with a typed *SpillError wrapping the cause; a spilling operator
// never returns a partial result. Temp files are created only through the
// storage.SpillManager (enforced by the spillcleanup analyzer), tracked by
// the operator that made them and removed by it before its rows move on — a
// spilled sort's runs once the runner has read their merge — so Live() == 0
// holds after every run, faulted or not.
package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
)

// spillRow is one spilled record: the row plus the arrival sequence the
// operators use to reconstruct in-memory output order.
type spillRow struct {
	seq int64
	row value.Row
}

// Value tags of the spill row codec.
const (
	spillTagNull = iota
	spillTagInt
	spillTagFloat
	spillTagString
	spillTagBool
)

// appendSpillRow encodes (seq, row) into buf: varint seq, uvarint column
// count, then one tagged value per column (varint int payloads, fixed
// 64-bit float bits, uvarint-length strings).
func appendSpillRow(buf []byte, seq int64, row value.Row) []byte {
	buf = binary.AppendVarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		switch v.Kind() {
		case value.KindNull:
			buf = append(buf, spillTagNull)
		case value.KindInt:
			buf = append(buf, spillTagInt)
			buf = binary.AppendVarint(buf, v.Int())
		case value.KindFloat:
			buf = append(buf, spillTagFloat)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		case value.KindString:
			s := v.Str()
			buf = append(buf, spillTagString)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case value.KindBool:
			b := byte(0)
			if v.Bool() {
				b = 1
			}
			buf = append(buf, spillTagBool, b)
		}
	}
	return buf
}

// readSpillRow decodes one record from r. ok is false at a clean EOF; a
// truncated record is an error, never a partial row.
func readSpillRow(r *bufio.Reader) (spillRow, bool, error) {
	seq, err := binary.ReadVarint(r)
	if err == io.EOF {
		return spillRow{}, false, nil
	}
	if err != nil {
		return spillRow{}, false, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return spillRow{}, false, noEOF(err)
	}
	row := make(value.Row, n)
	for i := range row {
		tag, err := r.ReadByte()
		if err != nil {
			return spillRow{}, false, noEOF(err)
		}
		switch tag {
		case spillTagNull:
			row[i] = value.Null
		case spillTagInt:
			iv, err := binary.ReadVarint(r)
			if err != nil {
				return spillRow{}, false, noEOF(err)
			}
			row[i] = value.NewInt(iv)
		case spillTagFloat:
			var b [8]byte
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return spillRow{}, false, noEOF(err)
			}
			row[i] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
		case spillTagString:
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return spillRow{}, false, noEOF(err)
			}
			b := make([]byte, ln)
			if _, err := io.ReadFull(r, b); err != nil {
				return spillRow{}, false, noEOF(err)
			}
			row[i] = value.NewString(string(b))
		case spillTagBool:
			b, err := r.ReadByte()
			if err != nil {
				return spillRow{}, false, noEOF(err)
			}
			row[i] = value.NewBool(b == 1)
		default:
			return spillRow{}, false, fmt.Errorf("corrupt spill record: tag %d", tag)
		}
	}
	return spillRow{seq: seq, row: row}, true, nil
}

// noEOF maps an EOF inside a record to ErrUnexpectedEOF so truncation is
// distinguishable from a clean end of file.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// spillFile is one temp file owned by an operator: buffered writes, then a
// rewind and sequential reads. The file is created by its first record, so
// an empty grace partition never touches the disk. Every record write,
// record read and close advances the governor's disk fault point; any error
// — injected or real — surfaces as a *SpillError from the owning operator's
// name.
type spillFile struct {
	f       *os.File // nil until the first write
	mgr     *storage.SpillManager
	gov     *governor
	metrics *obs.OpMetrics
	op      string // owning operator, for SpillError
	tag     string
	w       *bufio.Writer
	r       *bufio.Reader
	scratch []byte
	bytes   int64
	gone    bool
}

func newSpillFile(mgr *storage.SpillManager, gov *governor, metrics *obs.OpMetrics, op, tag string) *spillFile {
	return &spillFile{mgr: mgr, gov: gov, metrics: metrics, op: op, tag: tag}
}

// writeRecord appends one encoded (seq, row) record. An injected
// DiskShortWrite writes half the record before failing, modelling a torn
// write that a reader would see as a truncated record.
func (s *spillFile) writeRecord(seq int64, row value.Row) error {
	if s.f == nil {
		f, err := s.mgr.Create(s.tag)
		if err != nil {
			return &SpillError{Op: s.op, Stage: "create", Err: err}
		}
		s.f, s.w = f, bufio.NewWriter(f)
	}
	s.scratch = appendSpillRow(s.scratch[:0], seq, row)
	if err := s.gov.diskTick(); err != nil {
		var fe *fault.Error
		if errors.As(err, &fe) && fe.Kind == fault.DiskShortWrite {
			s.w.Write(s.scratch[:len(s.scratch)/2])
			s.w.Flush()
			return &SpillError{Op: s.op, Stage: "write", Err: fmt.Errorf("%w: %w", io.ErrShortWrite, err)}
		}
		return &SpillError{Op: s.op, Stage: "write", Err: err}
	}
	n, err := s.w.Write(s.scratch)
	s.bytes += int64(n)
	s.gov.noteSpill(int64(n))
	if s.metrics != nil {
		s.metrics.SpillBytes.Add(int64(n))
	}
	if err != nil {
		return &SpillError{Op: s.op, Stage: "write", Err: err}
	}
	return nil
}

// startRead flushes pending writes and rewinds for sequential reads.
func (s *spillFile) startRead() error {
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return &SpillError{Op: s.op, Stage: "flush", Err: err}
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return &SpillError{Op: s.op, Stage: "seek", Err: err}
	}
	s.r = bufio.NewReader(s.f)
	return nil
}

// readRecord returns the next record; ok is false at end of file.
func (s *spillFile) readRecord() (spillRow, bool, error) {
	if s.f == nil {
		return spillRow{}, false, nil
	}
	if err := s.gov.diskTick(); err != nil {
		return spillRow{}, false, &SpillError{Op: s.op, Stage: "read", Err: err}
	}
	sr, ok, err := readSpillRow(s.r)
	if err != nil {
		return spillRow{}, false, &SpillError{Op: s.op, Stage: "read", Err: err}
	}
	return sr, ok, nil
}

// discard closes and removes the file. The file is removed even when the
// close fails (or a close fault fires), so a failing query never leaks temp
// files; the first error is reported. Idempotent.
func (s *spillFile) discard() error {
	if s.gone || s.f == nil {
		return nil
	}
	s.gone = true
	var first error
	if err := s.gov.diskTick(); err != nil {
		first = &SpillError{Op: s.op, Stage: "close", Err: err}
	}
	if err := s.f.Close(); err != nil && first == nil {
		first = &SpillError{Op: s.op, Stage: "close", Err: err}
	}
	if err := s.mgr.Remove(s.f.Name()); err != nil && first == nil {
		first = &SpillError{Op: s.op, Stage: "remove", Err: err}
	}
	return first
}

// extSorter is the one sorter: a stable sort of rows under cmp (ties keep
// arrival order) that goes external on budget pressure. With a spill manager
// rows are buffered under tryCharge accounting, the buffer is written out as
// a sorted run when the budget refuses a row, and finish() merges the runs;
// records carry their arrival seq, so ties resolve across runs exactly as
// within one and a consumer can tell which record came first. Without a manager nothing can spill and nothing is accounted:
// the buffer is sorted in place on par workers.
type extSorter struct {
	gov     *governor
	mgr     *storage.SpillManager
	metrics *obs.OpMetrics
	op      string
	par     int
	cmp     func(a, b value.Row) int

	buf     []value.Row // arrival order
	base    int64       // arrival seq of buf[0]
	charged int64
	runs    []*spillFile
}

// add buffers one row accounted at `bytes`, flushing a sorted run to disk
// when the budget refuses it. A row too large for the whole budget is
// admitted uncharged: the external sort degrades accounting before it ever
// fails.
func (x *extSorter) add(row value.Row, bytes int64) error {
	if x.mgr == nil {
		bytes = 0
	} else if !x.gov.tryCharge(bytes) {
		if len(x.buf) > 0 {
			if err := x.flushRun(); err != nil {
				return err
			}
		}
		if !x.gov.tryCharge(bytes) {
			bytes = 0
		}
	}
	x.charged += bytes
	x.buf = append(x.buf, row)
	return nil
}

// addAll hands the sorter its whole input at once. With nothing to account
// an empty sorter adopts the slice and later sorts it in place.
func (x *extSorter) addAll(rows []value.Row) error {
	if x.mgr == nil && len(x.buf) == 0 {
		x.buf = rows
		return nil
	}
	for _, row := range rows {
		if err := x.gov.tick(); err != nil {
			return err
		}
		if err := x.add(row, rowStateBytes(row)); err != nil {
			return err
		}
	}
	return nil
}

// sortedOrder returns the buffer's indices in sorted order; the rows stay
// in arrival order, so an index is still a row's arrival seq less base.
func (x *extSorter) sortedOrder() []int {
	order := make([]int, len(x.buf))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x.cmp(x.buf[order[a]], x.buf[order[b]]) < 0 })
	return order
}

// flushRun writes the buffer out as one sorted run and releases its charge.
func (x *extSorter) flushRun() error {
	sf := newSpillFile(x.mgr, x.gov, x.metrics, x.op, "run")
	x.runs = append(x.runs, sf)
	for _, i := range x.sortedOrder() {
		if err := sf.writeRecord(x.base+int64(i), x.buf[i]); err != nil {
			return err
		}
	}
	if x.metrics != nil {
		x.metrics.SortRuns.Add(1)
	}
	x.gov.release(x.charged)
	x.charged = 0
	x.base += int64(len(x.buf))
	x.buf = x.buf[:0]
	return nil
}

// finish ends the input phase and returns an iterator over all records in
// sorted order. With no runs on disk the buffer is iterated directly — sorted
// in place when nothing could have spilled, which is the one case where the
// records' arrival seqs are not kept; otherwise the buffer becomes the final
// run and the runs are k-way merged, streaming.
func (x *extSorter) finish() (*mergeIter, error) {
	if x.mgr == nil {
		return &mergeIter{rows: sortRowsStable(x.op, x.buf, x.par, x.cmp)}, nil
	}
	if len(x.runs) == 0 {
		return &mergeIter{rows: x.buf, order: x.sortedOrder()}, nil
	}
	if len(x.buf) > 0 {
		if err := x.flushRun(); err != nil {
			return nil, err
		}
	}
	it := &mergeIter{cmp: x.cmp, runs: x.runs}
	for _, run := range x.runs {
		if err := run.startRead(); err != nil {
			return nil, err
		}
		sr, ok, err := run.readRecord()
		if err != nil {
			return nil, err
		}
		if ok {
			it.push(runHead{cur: sr, src: run})
		}
	}
	return it, nil
}

// close discards every run file; the first error is reported.
func (x *extSorter) close() error { return discardAll(x.runs) }

// discardAll discards every file of files; the first error is reported.
func discardAll(files []*spillFile) error {
	var first error
	for _, f := range files {
		if err := f.discard(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runHead is one run's current record in the merge heap.
type runHead struct {
	cur spillRow
	src *spillFile
}

// mergeIter yields records in sorted order: from the in-memory buffer, or by
// merging run files through a binary min-heap.
type mergeIter struct {
	// in-memory mode: rows in iteration order, or in arrival order with the
	// iteration order beside them; seq is the index into rows either way
	rows  []value.Row
	order []int
	pos   int
	// merge mode
	cmp   func(a, b value.Row) int
	heads []runHead
	runs  []*spillFile // every run, discarded by close
}

// sorted is an in-memory iteration's rows in iteration order: the buffer
// itself when it is sorted, else permuted once.
func (m *mergeIter) sorted() []value.Row {
	if m.order == nil {
		return m.rows
	}
	rows := make([]value.Row, len(m.order))
	for i, o := range m.order {
		rows[i] = m.rows[o]
	}
	return rows
}

// drain reads a merge to its end into rows, polling the context per record.
func (m *mergeIter) drain(gov *governor) ([]value.Row, error) {
	var rows []value.Row
	for {
		sr, ok, err := m.next()
		if err == nil && ok {
			err = gov.cancelled()
		}
		if !ok || err != nil {
			return rows, err
		}
		rows = append(rows, sr.row)
	}
}

// close discards the merge's run files; the first error is reported.
func (m *mergeIter) close() error { return discardAll(m.runs) }

// before is the merge order: cmp, ties broken by arrival seq.
func (m *mergeIter) before(a, b spillRow) bool {
	c := m.cmp(a.row, b.row)
	return c < 0 || c == 0 && a.seq < b.seq
}

func (m *mergeIter) push(h runHead) {
	m.heads = append(m.heads, h)
	i := len(m.heads) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.before(m.heads[i].cur, m.heads[parent].cur) {
			break
		}
		m.heads[i], m.heads[parent] = m.heads[parent], m.heads[i]
		i = parent
	}
}

func (m *mergeIter) siftDown() {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(m.heads) && m.before(m.heads[l].cur, m.heads[min].cur) {
			min = l
		}
		if r < len(m.heads) && m.before(m.heads[r].cur, m.heads[min].cur) {
			min = r
		}
		if min == i {
			return
		}
		m.heads[i], m.heads[min] = m.heads[min], m.heads[i]
		i = min
	}
}

// next returns the smallest remaining record; ok is false when drained.
func (m *mergeIter) next() (spillRow, bool, error) {
	if m.cmp == nil {
		if m.pos >= len(m.rows) {
			return spillRow{}, false, nil
		}
		i := m.pos
		if m.order != nil {
			i = m.order[i]
		}
		m.pos++
		return spillRow{seq: int64(i), row: m.rows[i]}, true, nil
	}
	if len(m.heads) == 0 {
		return spillRow{}, false, nil
	}
	out := m.heads[0].cur
	src := m.heads[0].src
	sr, ok, err := src.readRecord()
	if err != nil {
		return spillRow{}, false, err
	}
	if ok {
		m.heads[0].cur = sr
	} else {
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	}
	m.siftDown()
	return out, true, nil
}
