package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// CSVOptions control CSV ingestion.
type CSVOptions struct {
	// Comma is the field separator; ',' when zero.
	Comma rune
	// NoHeader indicates the first record is data, not column names; in
	// that case columns are named A, B, C, … .
	NoHeader bool
	// ChunkRows bounds the raw CSV records ReadCSV buffers at a time;
	// values < 1 select DefaultChunkRows.
	ChunkRows int
	// Relation options (type inference, NULL tokens).
	Options
}

// ReadCSV parses CSV data into a relation. It streams: records are
// buffered in chunks of at most opts.ChunkRows and each chunk is
// dictionary-encoded column by column before the next is read, so peak
// memory holds one chunk of raw records, one int32 per cell and each
// column's distinct values, never the whole file as strings. The first
// error in file order is reported. When opts.Stop is set it is polled
// every few hundred records, so a cancelled caller (a deleted discovery
// job, a closed connection) aborts ingestion promptly instead of parsing
// input it will never use; the error then wraps ErrStopped.
func ReadCSV(src io.Reader, name string, opts CSVOptions) (*Relation, error) {
	e, err := readChunks(src, name, opts)
	if err != nil {
		return nil, err
	}
	return e.relation()
}

// ReadCSVChunked is ReadCSV, which always streams in chunks of
// opts.ChunkRows records; it backs ocd.LoadCSVChunked.
func ReadCSVChunked(src io.Reader, name string, opts CSVOptions) (*Relation, error) {
	return ReadCSV(src, name, opts)
}

// slabRows is the row count of one slab of a chunk's cell storage: small
// tables allocate little, and a full chunk needs ChunkRows/slabRows slabs,
// allocated once and reused by every later chunk.
const slabRows = 64

// readChunks reads the CSV records into an encoder, one chunk at a time,
// under the "parse" span.
func readChunks(src io.Reader, name string, opts CSVOptions) (*encoder, error) {
	span := opts.Trace.StartChild("parse")
	defer span.End()
	chunkRows := opts.ChunkRows
	if chunkRows < 1 {
		chunkRows = DefaultChunkRows
	}
	cr := csv.NewReader(src)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1 // validated below with a clearer error
	cr.ReuseRecord = true   // fields are copied into slabs below
	stop := &stopLatch{stop: opts.Stop}
	var e *encoder
	var chunk [][]string // the chunk's rows, slices of slab cells
	var slabs [][]string // cells of slabRows rows each, reused by every chunk
	used := 0            // slabs holding the current chunk's cells
	read := 0            // data records read so far
	for {
		if read%stopEvery == 0 && stop.poll() {
			return nil, fmt.Errorf("read csv %s: after %d records: %w", name, read, ErrStopped)
		}
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read csv %s: %w", name, err)
		}
		if e == nil {
			var header []string
			if opts.NoHeader {
				header = make([]string, len(rec))
				for i := range header {
					header[i] = defaultColName(i)
				}
			} else {
				header = slices.Clone(rec) // rec is reused by the next Read
			}
			e = newEncoder(name, header, opts.Options, stop)
			if !opts.NoHeader {
				continue
			}
		}
		read++
		if len(rec) != len(e.cols) {
			// Row numbers in errors are 1-based data rows.
			return nil, fmt.Errorf("read csv %s: row %d has %d fields, want %d", name, read, len(rec), len(e.cols))
		}
		// Copy the fields into a slab. Slabs never grow, so a row's cells
		// stay put until its chunk is encoded.
		if used == 0 || len(slabs[used-1])+len(rec) > cap(slabs[used-1]) {
			if used == len(slabs) {
				slabs = append(slabs, make([]string, 0, slabRows*len(rec)))
			}
			slabs[used] = slabs[used][:0]
			used++
		}
		start := len(slabs[used-1])
		slabs[used-1] = append(slabs[used-1], rec...)
		chunk = append(chunk, slabs[used-1][start:])
		if len(chunk) == chunkRows {
			e.add(chunk)
			chunk, used = chunk[:0], 0
		}
	}
	if e == nil {
		return nil, fmt.Errorf("read csv %s: empty input", name)
	}
	e.add(chunk)
	span.SetAttr("records", int64(e.rows))
	return e, nil
}

// ReadCSVFile parses the CSV file at path; the relation is named after the
// file's base name without extension.
func ReadCSVFile(path string, opts CSVOptions) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(f, name, opts)
}

// WriteCSV writes the relation (display values, with header) as CSV.
// NULL values are written as empty fields.
func (r *Relation) WriteCSV(dst io.Writer) error {
	w := csv.NewWriter(dst)
	if err := w.Write(r.ColNames); err != nil {
		return err
	}
	row := make([]string, r.NumCols())
	for i := 0; i < r.rows; i++ {
		for c := 0; c < r.NumCols(); c++ {
			if r.Codes[c][i] == NullCode {
				row[c] = ""
			} else {
				row[c] = r.display[c][r.Codes[c][i]]
			}
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
