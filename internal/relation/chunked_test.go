package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// assertSameRelation compares every observable of two relations.
func assertSameRelation(t *testing.T, want, got *Relation) {
	t.Helper()
	if want.Name != got.Name {
		t.Errorf("Name: %q vs %q", want.Name, got.Name)
	}
	if !reflect.DeepEqual(want.ColNames, got.ColNames) {
		t.Errorf("ColNames: %v vs %v", want.ColNames, got.ColNames)
	}
	if !reflect.DeepEqual(want.Kinds, got.Kinds) {
		t.Errorf("Kinds: %v vs %v", want.Kinds, got.Kinds)
	}
	if !reflect.DeepEqual(want.Codes, got.Codes) {
		t.Errorf("Codes differ:\nwant %v\ngot  %v", want.Codes, got.Codes)
	}
	if !reflect.DeepEqual(want.display, got.display) {
		t.Errorf("display differs:\nwant %v\ngot  %v", want.display, got.display)
	}
	if !reflect.DeepEqual(want.distinct, got.distinct) {
		t.Errorf("distinct: %v vs %v", want.distinct, got.distinct)
	}
	if !reflect.DeepEqual(want.hasNull, got.hasNull) {
		t.Errorf("hasNull: %v vs %v", want.hasNull, got.hasNull)
	}
	if want.rows != got.rows {
		t.Errorf("rows: %d vs %d", want.rows, got.rows)
	}
}

// referenceEncode is the test's own encoder, sharing no code with
// colBuilder, rankValues or inferKind. Per column it takes the distinct
// non-NULL values, infers the narrowest kind that parses all of them,
// sorts them by the kind's order with spelling as tiebreak and merges
// equal numbers into one code; NULL is code 0.
func referenceEncode(t *testing.T, name string, header []string, rows [][]string, opts Options) *Relation {
	t.Helper()
	tokens := opts.NullTokens
	if tokens == nil {
		tokens = []string{"", "NULL", "null", "?"}
	}
	isNull := func(s string) bool { return slices.Contains(tokens, s) }
	nc := len(header)
	r := &Relation{
		Name:     name,
		ColNames: append([]string(nil), header...),
		Kinds:    make([]Kind, nc),
		Codes:    make([][]int32, nc),
		display:  make([][]string, nc),
		distinct: make([]int, nc),
		hasNull:  make([]bool, nc),
		rows:     len(rows),
	}
	for c := 0; c < nc; c++ {
		var vals []string
		seen := map[string]bool{}
		for _, row := range rows {
			if isNull(row[c]) {
				r.hasNull[c] = true
			} else if !seen[row[c]] {
				seen[row[c]] = true
				vals = append(vals, row[c])
			}
		}
		kind := KindString
		if !opts.ForceString && len(vals) > 0 {
			kind = KindInt
			for _, v := range vals {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					kind = KindString
					break
				}
				if _, err := strconv.ParseInt(v, 10, 64); err != nil {
					kind = KindFloat
				}
			}
		}
		sort.Slice(vals, func(i, j int) bool {
			if o := cmpNonNull(t, kind, vals[i], vals[j]); o != 0 {
				return o < 0
			}
			return vals[i] < vals[j]
		})
		code := map[string]int32{}
		display := []string{"NULL"}
		for i, v := range vals {
			if i == 0 || cmpNonNull(t, kind, vals[i-1], v) != 0 {
				display = append(display, v)
			}
			code[v] = int32(len(display) - 1)
		}
		r.Codes[c] = make([]int32, len(rows))
		for i, row := range rows {
			r.Codes[c][i] = code[row[c]] // NULL tokens are absent: code 0
		}
		r.Kinds[c] = kind
		r.display[c] = display
		r.distinct[c] = len(display) - 1
	}
	return r
}

// referenceCSV splits CSV input with encoding/csv and encodes it with
// referenceEncode. ok is false when the input is empty, malformed or
// ragged, which the loaders must reject.
func referenceCSV(t *testing.T, data, name string, opts CSVOptions) (want *Relation, header []string, rows [][]string, ok bool) {
	t.Helper()
	cr := csv.NewReader(strings.NewReader(data))
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil || len(recs) == 0 {
		return nil, nil, nil, false
	}
	header, rows = recs[0], recs[1:]
	if opts.NoHeader {
		header = make([]string, len(recs[0]))
		for i := range header {
			header[i] = string(rune('A' + i))
		}
		rows = recs
	}
	for _, row := range rows {
		if len(row) != len(header) {
			return nil, nil, nil, false
		}
	}
	return referenceEncode(t, name, header, rows, opts.Options), header, rows, true
}

// manyRowsCSV is a table of the given height with repeated values,
// numeric respellings and NULLs in every column.
func manyRowsCSV(rows int) string {
	var sb strings.Builder
	sb.WriteString("i,f,s\n")
	for i := 0; i < rows; i++ {
		if i%11 == 0 {
			sb.WriteString(",NULL,?\n")
			continue
		}
		fmt.Fprintf(&sb, "%0*d,%d.%0*d,x%d\n", i%2+1, i%53, i%17, i%3+1, 0, i%29)
	}
	return sb.String()
}

// TestChunkedMatchesWholeFile checks every loader against referenceEncode:
// FromStrings, and ReadCSV at several chunk sizes, each with one and with
// several column workers.
func TestChunkedMatchesWholeFile(t *testing.T) {
	cases := map[string]struct {
		csv  string
		opts CSVOptions
	}{
		"ints": {csv: "a,b\n3,1\n1,2\n2,3\n3,1\n"},
		"respellings": {
			// "1"/"01" and "1.0"/"1.00" must merge into one code.
			csv: "a,b\n01,1.0\n1,1.00\n2,2.5\n",
		},
		"nulls": {csv: "a,b\n1,\nNULL,2\n?,null\n3,4\n"},
		"nan-floats": {
			csv: "x\nNaN\n1.5\n-2.25\nNaN\n0.0\n",
		},
		"strings":     {csv: "s,t\nfoo,x\nbar,y\nfoo,z\n"},
		"mixed-kinds": {csv: "a,b,c\n1,1.5,zz\n2,x,3\n"},
		"no-header": {
			csv:  "5,foo\n2,bar\n5,baz\n",
			opts: CSVOptions{NoHeader: true},
		},
		"force-string": {
			csv:  "a\n10\n9\n100\n",
			opts: CSVOptions{Options: Options{ForceString: true}},
		},
		"semicolon": {
			csv:  "a;b\n1;2\n3;4\n",
			opts: CSVOptions{Comma: ';'},
		},
		"header-only": {csv: "a,b\n"},
		"custom-nulls": {
			csv:  "a,b\nNA,NULL\n1,?\n2,\n",
			opts: CSVOptions{Options: Options{NullTokens: []string{"NA"}}},
		},
		// More rows than one slab and than FromStrings' chunk.
		"many-rows": {csv: manyRowsCSV(DefaultChunkRows + 1000)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			want, header, rows, ok := referenceCSV(t, tc.csv, "t", tc.opts)
			if !ok {
				t.Fatalf("reference rejects %q", tc.csv)
			}
			for _, procs := range []int{1, 4} {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				got, err := FromStrings("t", header, rows, tc.opts.Options)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d FromStrings: %v", procs, err)
				}
				assertSameRelation(t, want, got)
				for _, chunkRows := range []int{1, 2, 3, 64, 1 << 20} {
					opts := tc.opts
					opts.ChunkRows = chunkRows
					got, err := ReadCSV(strings.NewReader(tc.csv), "t", opts)
					if err != nil {
						t.Fatalf("GOMAXPROCS=%d ChunkRows=%d: %v", procs, chunkRows, err)
					}
					assertSameRelation(t, want, got)
				}
			}
		})
	}
}

func TestChunkedEmptyInputErrors(t *testing.T) {
	_, err := ReadCSVChunked(strings.NewReader(""), "t", CSVOptions{})
	if err == nil || !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("err = %v, want empty-input error", err)
	}
}

func TestChunkedRaggedRowErrorIsOneBased(t *testing.T) {
	// The short row is the 3rd data row; chunk size 2 puts it in the second
	// chunk, so the error must still report the global row number.
	in := "a,b\n1,2\n3,4\n5\n"
	_, err := ReadCSVChunked(strings.NewReader(in), "t", CSVOptions{ChunkRows: 2})
	if err == nil || !strings.Contains(err.Error(), "row 3 has 1 fields, want 2") {
		t.Fatalf("err = %v, want 1-based row 3", err)
	}
}

// TestChunkedBuilderTracksFirstOccurrence pins the bookkeeping that keeps
// chunked coercion errors 1-based and global: a value first seen in a later
// chunk records its absolute data row, and duplicates never update it.
func TestChunkedBuilderTracksFirstOccurrence(t *testing.T) {
	b := newColBuilder()
	b.addChunk([][]string{{"a"}, {"b"}}, 0, nil, 0)
	b.addChunk([][]string{{"b"}, {"c"}}, 0, nil, 2)
	want := map[string]int{"a": 1, "b": 2, "c": 4}
	for id, s := range b.vals {
		if b.firstRow[id] != want[s] {
			t.Errorf("firstRow[%q] = %d, want %d", s, b.firstRow[id], want[s])
		}
	}
	rows := 0
	for _, block := range b.blocks {
		rows += len(block)
	}
	if rows != 4 {
		t.Errorf("codes rows = %d, want 4", rows)
	}
}

func TestChunkedStopAborts(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a\n")
	for i := 0; i < 5000; i++ {
		sb.WriteString("1\n")
	}
	calls := 0
	opts := CSVOptions{Options: Options{Stop: func() bool {
		calls++
		return calls > 1
	}}}
	_, err := ReadCSVChunked(strings.NewReader(sb.String()), "t", opts)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// FuzzChunkedEquivalence checks ReadCSV and FromStrings against
// referenceEncode on arbitrary CSV bytes: both must accept exactly the
// inputs the reference accepts, and produce its relation.
func FuzzChunkedEquivalence(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n", 1)
	f.Add("a,b\n01,x\n1,y\nNULL,?\n", 2)
	f.Add("x\nNaN\n1.0\n1.00\n", 3)
	f.Fuzz(func(t *testing.T, data string, chunkRows int) {
		if len(data) > 1<<16 {
			return
		}
		want, header, rows, ok := referenceCSV(t, data, "f", CSVOptions{})
		got, err := ReadCSV(strings.NewReader(data), "f", CSVOptions{ChunkRows: chunkRows%64 + 1})
		if ok != (err == nil) {
			t.Fatalf("acceptance differs: reference ok=%v, ReadCSV err=%v", ok, err)
		}
		if !ok {
			return
		}
		assertSameRelation(t, want, got)
		got, err = FromStrings("f", header, rows, Options{})
		if err != nil {
			t.Fatalf("FromStrings: %v", err)
		}
		assertSameRelation(t, want, got)
	})
}
