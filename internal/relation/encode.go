package relation

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Encoding: every loader (ReadCSV, FromStrings) feeds its rows to one
// colBuilder per column in chunks of at most ChunkRows rows. A builder
// dictionary-encodes each cell into a provisional code (distinct values in
// first-occurrence order) with a single map lookup, so once a chunk is
// encoded its raw rows can go: only each column's distinct values and one
// int32 per cell stay in memory. At the end each column's kind is inferred
// from its distinct values, rankValues ranks them, and finalize maps the
// provisional codes to final ones. Kind and rank depend only on which
// values occur, never on how often, in what order or in which chunk, so
// every loader and every chunk size gives the same relation. Both steps
// spread columns over goroutines.

// DefaultChunkRows is the chunk size of FromStrings, and of ReadCSV when
// CSVOptions.ChunkRows is unset.
const DefaultChunkRows = 4096

// provisionalNull is the provisional code of NULL cells, and the dictionary
// entry of every NULL token; finalize maps it to NullCode.
const provisionalNull = int32(-1)

// colBuilder accumulates one column across chunks: a dictionary of distinct
// raw values (provisional codes in first-occurrence order) and the
// provisional code of every row seen so far, one block per chunk. Blocks
// rather than one growing slice keep the allocation at one int32 per cell
// before finalize and one after, whatever the row count.
type colBuilder struct {
	dict     map[string]int32 // raw value → provisional code or provisionalNull
	vals     []string         // distinct non-NULL values, indexed by provisional code
	firstRow []int            // 1-based first-occurrence row of each value, for errors
	blocks   [][]int32        // provisional codes, one block per chunk
	hasNull  bool
}

func newColBuilder() *colBuilder {
	return &colBuilder{dict: make(map[string]int32)}
}

// addChunk merges one chunk of records into the builder; base is the number
// of data rows already consumed before this chunk. The dictionary lookup
// comes first, so a cell costs one map lookup: the NULL set is consulted
// only for a value not seen before.
func (b *colBuilder) addChunk(chunk [][]string, col int, nulls map[string]bool, base int) {
	block := make([]int32, len(chunk))
	for i, rec := range chunk {
		s := rec[col]
		id, ok := b.dict[s]
		if !ok {
			id = provisionalNull
			if nulls[s] {
				b.hasNull = true
			} else {
				id = int32(len(b.vals))
				b.vals = append(b.vals, s)
				b.firstRow = append(b.firstRow, base+i+1)
			}
			b.dict[s] = id
		}
		block[i] = id
	}
	b.blocks = append(b.blocks, block)
}

// finalize ranks the column's distinct values as kind with rankValues and
// maps the provisional codes of all rows, in order, to final rank codes. A
// value that does not parse as kind is reported at the row of its first
// occurrence.
func (b *colBuilder) finalize(kind Kind) (codes []int32, display []string, distinct int, err error) {
	entries := make([]rankEntry, len(b.vals))
	for id, s := range b.vals {
		e := rankEntry{s: s}
		switch kind {
		case KindInt:
			e.i, err = strconv.ParseInt(s, 10, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("row %d: value %q does not parse as INTEGER", b.firstRow[id], s)
			}
		case KindFloat:
			e.f, err = strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("row %d: value %q does not parse as REAL", b.firstRow[id], s)
			}
		}
		entries[id] = e
	}
	final, display, distinct := rankValues(entries, kind)
	rows := 0
	for _, block := range b.blocks {
		rows += len(block)
	}
	codes = make([]int32, 0, rows)
	for _, block := range b.blocks {
		for _, p := range block {
			if p == provisionalNull {
				codes = append(codes, NullCode)
			} else {
				codes = append(codes, final[p])
			}
		}
	}
	b.dict, b.blocks = nil, nil
	return codes, display, distinct, nil
}

// stopLatch serialises the polls of a caller's Options.Stop: column
// workers poll through it, so Stop is never entered concurrently, and once
// it has reported true every later poll reports true without calling it.
type stopLatch struct {
	mu      sync.Mutex
	stop    func() bool
	stopped bool
}

func (l *stopLatch) poll() bool {
	if l.stop == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.stopped {
		l.stopped = l.stop()
	}
	return l.stopped
}

// forEachColumn calls f(c) for every column c < n on min(GOMAXPROCS, n)
// goroutines that claim columns from a shared counter, and returns once
// every call has.
func forEachColumn(n int, f func(c int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := int(next.Add(1) - 1); c < n; c = int(next.Add(1) - 1) {
				f(c)
			}
		}()
	}
	wg.Wait()
}

// encoder is one ingestion in progress: a colBuilder per column, fed one
// chunk of rows at a time.
type encoder struct {
	name   string
	header []string
	opts   Options
	nulls  map[string]bool
	stop   *stopLatch
	cols   []*colBuilder
	rows   int // data rows added so far
}

func newEncoder(name string, header []string, opts Options, stop *stopLatch) *encoder {
	e := &encoder{
		name:   name,
		header: header,
		opts:   opts,
		nulls:  opts.nullSet(),
		stop:   stop,
		cols:   make([]*colBuilder, len(header)),
	}
	for c := range e.cols {
		e.cols[c] = newColBuilder()
	}
	return e
}

// add dictionary-encodes one chunk of rows, each of len(header) fields.
func (e *encoder) add(chunk [][]string) {
	if len(chunk) == 0 {
		return
	}
	forEachColumn(len(e.cols), func(c int) {
		e.cols[c].addChunk(chunk, c, e.nulls, e.rows)
	})
	e.rows += len(chunk)
}

// relation infers every column's kind, ranks it and assembles the
// relation. When columns fail, the error is the lowest failing column's,
// so it does not depend on scheduling.
func (e *encoder) relation() (*Relation, error) {
	span := e.opts.Trace.StartChild("rank-encode")
	defer span.End()
	nc := len(e.cols)
	span.SetAttr("rows", int64(e.rows))
	span.SetAttr("cols", int64(nc))
	r := &Relation{
		Name:     e.name,
		ColNames: append([]string(nil), e.header...),
		Kinds:    make([]Kind, nc),
		Codes:    make([][]int32, nc),
		display:  make([][]string, nc),
		distinct: make([]int, nc),
		hasNull:  make([]bool, nc),
		rows:     e.rows,
	}
	errs := make([]error, nc)
	forEachColumn(nc, func(c int) {
		errs[c] = e.finishColumn(r, c)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// finishColumn finalizes column c into r; kind inference sees only the
// column's distinct non-NULL values.
func (e *encoder) finishColumn(r *Relation, c int) error {
	if e.stop.poll() {
		return fmt.Errorf("relation %s: rank-encode column %d: %w", e.name, c+1, ErrStopped)
	}
	b := e.cols[c]
	kind := KindString
	if !e.opts.ForceString {
		kind = inferKind(b.vals)
	}
	codes, display, distinct, err := b.finalize(kind)
	if err != nil {
		return fmt.Errorf("relation %s: column %d (%s): %w", e.name, c+1, e.header[c], err)
	}
	r.Kinds[c] = kind
	r.Codes[c] = codes
	r.display[c] = display
	r.distinct[c] = distinct
	r.hasNull[c] = b.hasNull
	return nil
}
