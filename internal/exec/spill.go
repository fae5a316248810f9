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
// records carry their arrival sequence number, and one rule re-establishes
// the exact in-memory output order from those sequences: the external
// sorter's merge, by the sort keys and then by seq. A sort's runs are its
// sorted buffers; a grace join hands it each partition's joined rows, in
// probe-seq order (≡ probe order with build-insertion-order matches), and
// the spilled grouping each level's groups, in the seq order of their first
// rows (≡ hash first-appearance order), each as one run with no sort keys.
//
// Disk I/O is fault-injectable (fault.DiskStep fires per record written,
// read and per file close) and any failure — injected or real — aborts the
// operator with a typed *SpillError wrapping the cause; a spilling operator
// never returns a partial result. Temp files are created only through the
// storage.SpillManager (enforced by the spillcleanup analyzer), tracked by
// the operator that made them and removed by it before its rows move on — a
// sorter's runs once the runner has read their merge — so Live() == 0
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
		s.f, s.w = f, bufio.NewWriterSize(f, s.gov.spillBufSize())
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

// seal ends the writes: the buffered records go to the file and the write
// buffer is dropped, so a file waiting to be read holds no buffer.
// Idempotent.
func (s *spillFile) seal() error {
	if s.w == nil {
		return nil
	}
	err := s.w.Flush()
	s.w = nil
	if err != nil {
		return &SpillError{Op: s.op, Stage: "flush", Err: err}
	}
	return nil
}

// startRead seals the file and rewinds it for sequential reads.
func (s *spillFile) startRead() error {
	if s.f == nil {
		return nil
	}
	if err := s.seal(); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return &SpillError{Op: s.op, Stage: "seek", Err: err}
	}
	s.r = bufio.NewReaderSize(s.f, s.gov.spillBufSize())
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
	s.gone, s.r, s.w = true, nil, nil
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

// extSorter is the one sorter, and the one way spilled output gets back into
// order: a stable sort of rows under cmp (ties keep arrival order) that goes
// external on budget pressure. Rows are buffered under the store's admission.
// Without a spill manager a breach aborts, and finish sorts the buffer in
// place on par workers. With one, the buffer is written out as a sorted run
// when the budget refuses a row, a grace path hands over output that is
// already in order as whole runs (addRun), and finish merges the runs;
// records carry their arrival seq, so ties resolve across runs exactly as
// within one and a consumer can tell which record came first. A merge's file
// buffers are state too: the sorter charges them while the merge is open.
type extSorter struct {
	gov     *governor
	mgr     *storage.SpillManager
	metrics *obs.OpMetrics
	op      string
	par     int
	cmp     func(a, b value.Row) int
	adm     admission

	buf   []value.Row // arrival order
	base  int64       // arrival seq of buf[0]
	runs  []*spillFile
	added int // runs handed over by addRun
}

// mergeFanIn is the most runs a merge reads at once.
const mergeFanIn = 64

// Bounds of a spill file's one I/O buffer — its writer until it is sealed,
// then its reader until it is discarded —, sized so that the mergeFanIn+1
// buffers of a merge that writes a run fit the budget.
const (
	minSpillBuf = 64
	maxSpillBuf = 4096
)

// spillBufSize is the size of a spill file's I/O buffer under g's budget.
// Nil-safe.
func (g *governor) spillBufSize() int {
	if g == nil || g.budget <= 0 {
		return maxSpillBuf
	}
	return int(min(max(g.budget/(mergeFanIn+1), minSpillBuf), maxSpillBuf))
}

// minRun is the fewest rows a run of add's holds when the budget refuses
// even an empty buffer: the run is admitted uncharged, one morsel of rows,
// rather than one file per row.
const minRun = MorselSize

func newSorter(gov *governor, mgr *storage.SpillManager, metrics *obs.OpMetrics, op string, par int, cmp func(a, b value.Row) int) *extSorter {
	return &extSorter{gov: gov, mgr: mgr, metrics: metrics, op: op, par: par, cmp: cmp, adm: admissionFor(gov, mgr, op)}
}

// bySeq is the cmp of a sorter with no sort keys: every row ties, so its
// records merge by seq alone.
func bySeq(value.Row, value.Row) int { return 0 }

// add buffers one row accounted at bytes. Without a manager a breach aborts;
// with one the buffer is flushed as a sorted run when the budget refuses the
// row. When the budget refuses even an empty buffer — a row wider than the
// budget, or a budget other state holds — rows are admitted uncharged until
// the buffer holds minRun of them: the external sort degrades accounting
// before it ever fails, and still writes runs of a morsel, not of a row.
func (x *extSorter) add(row value.Row, bytes int64) error {
	err := x.adm.charge(bytes)
	if err == errRefused && len(x.buf) > 0 && (x.adm.held > 0 || len(x.buf) >= minRun) {
		if err = x.flushRun(); err == nil {
			err = x.adm.charge(bytes)
		}
	}
	if err == errRefused {
		x.adm.refused, err = false, nil
	}
	if err != nil {
		return err
	}
	x.buf = append(x.buf, row)
	return nil
}

// addAll hands a sorter without a manager its whole input at once: the
// slice, adopted and charged whole — rows of one input are of one width —,
// and later sorted in place.
func (x *extSorter) addAll(rows []value.Row) error {
	if x.buf = rows; len(rows) == 0 {
		return nil
	}
	return x.adm.charge(int64(len(rows)) * rowStateBytes(rows[0]))
}

// flushRun writes the buffer out as one sorted run and releases its charge.
func (x *extSorter) flushRun() error {
	order := make([]int, len(x.buf))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return x.cmp(x.buf[order[a]], x.buf[order[b]]) < 0 })
	return x.addRun(func(run *spillFile) error {
		for _, i := range order {
			if err := run.writeRecord(x.base+int64(i), x.buf[i]); err != nil {
				return err
			}
		}
		return nil
	}, func() {
		x.adm.release()
		x.base += int64(len(x.buf))
		x.buf = x.buf[:0]
	})
}

// addRun writes one run through fill, which writes its records in merge
// order, then calls release, which gives back the state the run was made
// from, and merges: the runs merge as the digits of their count in base
// mergeFanIn carry — each mergeFanIn-th run merges with the mergeFanIn-1
// before it into one, and so on up — so a sorter holds fewer than mergeFanIn
// runs of each generation, and a merge runs with the run's state released.
func (x *extSorter) addRun(fill func(run *spillFile) error, release func()) error {
	if err := x.writeRun(fill); err != nil {
		return err
	}
	release()
	x.added++
	for n := x.added; n%mergeFanIn == 0; n /= mergeFanIn {
		if err := x.mergeTail(); err != nil {
			return err
		}
	}
	return nil
}

// writeRun appends a run written, and sealed, by fill. A run fill writes
// nothing to has no file, but it counts: a grace path hands over a run per
// partition, so the count follows the partitioning, not the hash.
func (x *extSorter) writeRun(fill func(run *spillFile) error) error {
	run := newSpillFile(x.mgr, x.gov, x.metrics, x.op, "run")
	x.runs = append(x.runs, run)
	if x.metrics != nil {
		x.metrics.SortRuns.Add(1)
	}
	if err := fill(run); err != nil {
		return err
	}
	return run.seal()
}

// mergeTail merges the last mergeFanIn runs into one, which takes their
// place, charging their buffers and the new run's while it writes.
func (x *extSorter) mergeTail() error {
	from := len(x.runs) - mergeFanIn
	x.chargeBuffers(mergeFanIn + 1)
	defer x.adm.release()
	it, err := mergeRuns(x.runs[from:], x.cmp)
	if err == nil {
		err = x.writeRun(func(run *spillFile) error {
			return it.each(func(sr spillRow) error { return run.writeRecord(sr.seq, sr.row) })
		})
	}
	if err != nil {
		return err
	}
	x.runs = append(x.runs[:from], x.runs[len(x.runs)-1])
	return nil
}

// chargeBuffers admits the I/O buffers of files open spill files, uncharged
// when the budget refuses them, as add admits a row. A merge charges them
// when the sorter holds nothing else, and release gives them back.
func (x *extSorter) chargeBuffers(files int) {
	if x.adm.charge(int64(files*x.gov.spillBufSize())) == errRefused {
		x.adm.refused = false
	}
}

// finish ends the input phase, which ended with err, and returns the sorter's
// rows in order: with no runs on disk the buffer, sorted in place; otherwise
// the buffer becomes the last run and the runs — at most mergeFanIn of them —
// are k-way merged, streaming, their buffers charged until the merge is
// drained or closed. On any error the runs are discarded.
func (x *extSorter) finish(err error) (out opened, _ error) {
	switch {
	case err == nil && len(x.runs) == 0:
		return opened{rows: sortRowsStable(x.op, x.buf, x.par, x.cmp)}, nil
	case err == nil && len(x.buf) > 0:
		err = x.flushRun()
	}
	for err == nil && len(x.runs) > mergeFanIn {
		err = x.mergeTail()
	}
	if err == nil {
		x.chargeBuffers(len(x.runs))
		out.merge, err = mergeRuns(x.runs, x.cmp)
	}
	if err != nil {
		x.close()
		return opened{}, err
	}
	out.merge.release = x.adm.release
	return out, nil
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

// mergeIter yields the records of runs in sorted order: each run's current
// record in a min-heap under cmp, ties broken by arrival seq.
type mergeIter struct {
	heap binHeap[runHead]
	runs []*spillFile // every run, discarded by close
	// release, when set, gives the merge's buffers back to the budget once
	// the merge is drained or closed.
	release func()
}

// done calls release once.
func (m *mergeIter) done() {
	if m.release != nil {
		m.release()
		m.release = nil
	}
}

// mergeRuns starts the merge of runs, reading each one's first record.
func mergeRuns(runs []*spillFile, cmp func(a, b value.Row) int) (*mergeIter, error) {
	m := &mergeIter{runs: runs}
	m.heap.before = func(a, b runHead) bool {
		c := cmp(a.cur.row, b.cur.row)
		return c < 0 || c == 0 && a.cur.seq < b.cur.seq
	}
	for _, run := range runs {
		if err := run.startRead(); err != nil {
			return nil, err
		}
		sr, ok, err := run.readRecord()
		if err != nil {
			return nil, err
		}
		if ok {
			m.heap.push(runHead{cur: sr, src: run})
		}
	}
	return m, nil
}

// each hands fn the merge's records, in order, to its end.
func (m *mergeIter) each(fn func(spillRow) error) error {
	for {
		sr, ok, err := m.next()
		if err == nil && ok {
			err = fn(sr)
		}
		if !ok || err != nil {
			return err
		}
	}
}

// close discards the merge's run files; the first error is reported.
// Nil-safe.
func (m *mergeIter) close() error {
	if m == nil {
		return nil
	}
	m.done()
	return discardAll(m.runs)
}

// next returns the smallest remaining record; ok is false when drained. A run
// is discarded as soon as it is drained, so a merge read to its end has no
// file left.
func (m *mergeIter) next() (spillRow, bool, error) {
	if len(m.heap.items) == 0 {
		m.done()
		return spillRow{}, false, nil
	}
	head := &m.heap.items[0]
	out := head.cur
	sr, ok, err := head.src.readRecord()
	switch {
	case ok:
		head.cur = sr
		m.heap.fix()
	case err == nil:
		err = head.src.discard()
		m.heap.pop()
	}
	return out, err == nil, err
}

// binHeap is the package's one binary heap: items under before, the root an
// item no other comes before — the merge's run heads, smallest first, and
// TopK's kept rows, worst first.
type binHeap[T any] struct {
	items  []T
	before func(a, b T) bool
}

func (h *binHeap[T]) push(item T) {
	h.items = append(h.items, item)
	for i := len(h.items) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.before(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// fix restores the heap after its root was replaced.
func (h *binHeap[T]) fix() {
	for i := 0; ; {
		first, l := i, 2*i+1
		if l < len(h.items) && h.before(h.items[l], h.items[first]) {
			first = l
		}
		if r := l + 1; r < len(h.items) && h.before(h.items[r], h.items[first]) {
			first = r
		}
		if first == i {
			return
		}
		h.items[i], h.items[first] = h.items[first], h.items[i]
		i = first
	}
}

// pop removes the root and returns it.
func (h *binHeap[T]) pop() T {
	root, last := h.items[0], len(h.items)-1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.fix()
	return root
}
