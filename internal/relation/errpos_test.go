package relation

import (
	"strings"
	"testing"
)

// These tests pin the 1-based row and column positions in relation parse
// errors: a user staring at a million-row CSV needs "row 40321, column 3",
// not a bare "value does not parse".

func TestRaggedRowErrorIsOneBased(t *testing.T) {
	_, err := FromStrings("t", []string{"A", "B"},
		[][]string{{"1", "2"}, {"3", "4"}, {"5"}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "row 3 has 1 fields, want 2") {
		t.Fatalf("err = %v, want 1-based row 3", err)
	}
}

func TestFromIntsRaggedErrorIsOneBased(t *testing.T) {
	_, err := FromIntsErr("t", nil, [][]int{{1, 2}, {3}})
	if err == nil || !strings.Contains(err.Error(), "row 2 has 1 fields, want 2") {
		t.Fatalf("err = %v, want 1-based row 2", err)
	}
}

func TestCSVRaggedRowErrorIsOneBased(t *testing.T) {
	// Narrow data row: the first data row (CSV line 2) is "row 1".
	_, err := ReadCSV(strings.NewReader("a,b\n1,2\n3\n"), "t", CSVOptions{})
	if err == nil || !strings.Contains(err.Error(), "row 2 has 1 fields, want 2") {
		t.Fatalf("narrow: err = %v, want 1-based data row 2", err)
	}
	// Wide data row.
	_, err = ReadCSV(strings.NewReader("a,b\n1,2,3\n"), "t", CSVOptions{})
	if err == nil || !strings.Contains(err.Error(), "row 1 has 3 fields, want 2") {
		t.Fatalf("wide: err = %v, want 1-based data row 1", err)
	}
}

// Numeric coercion errors carry the 1-based row of the offending value.
// Type inference picks a kind every distinct value parses as, so encoding
// cannot fail through the loaders; this forces a kind on a builder to
// exercise the defensive path directly.
func TestCoercionErrorReportsRow(t *testing.T) {
	finalize := func(kind Kind, chunks ...[]string) error {
		b := newColBuilder()
		base := 0
		for _, vals := range chunks {
			chunk := make([][]string, len(vals))
			for i, v := range vals {
				chunk[i] = []string{v}
			}
			b.addChunk(chunk, 0, nil, base)
			base += len(vals)
		}
		_, _, _, err := b.finalize(kind)
		return err
	}
	err := finalize(KindInt, []string{"1", "2", "x"})
	if err == nil || !strings.Contains(err.Error(), `row 3: value "x" does not parse as INTEGER`) {
		t.Fatalf("int: err = %v, want row 3", err)
	}
	err = finalize(KindFloat, []string{"1.5", "y", "2.5"})
	if err == nil || !strings.Contains(err.Error(), `row 2: value "y" does not parse as REAL`) {
		t.Fatalf("float: err = %v, want row 2", err)
	}
	// Duplicates are deduped during encoding, also across chunks; the
	// reported row must still be the first occurrence of the failing value.
	err = finalize(KindInt, []string{"1", "x"}, []string{"x"})
	if err == nil || !strings.Contains(err.Error(), "row 2:") {
		t.Fatalf("dedup: err = %v, want first occurrence row 2", err)
	}
}

// TestCSVErrorsInFileOrder: ingestion streams, so of a ragged row and a
// malformed quote the one earlier in the file is reported, whatever the
// chunk size.
func TestCSVErrorsInFileOrder(t *testing.T) {
	cases := []struct{ csv, want string }{
		{"a,b\n1,2\n3\n4,5\nx\"y,6\n", "row 2 has 1 fields, want 2"},
		{"a,b\n1,2\nx\"y,3\n4\n", `bare " in non-quoted-field`},
	}
	for _, c := range cases {
		for _, chunkRows := range []int{1, 0} {
			_, err := ReadCSV(strings.NewReader(c.csv), "t", CSVOptions{ChunkRows: chunkRows})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%q ChunkRows=%d: err = %v, want %q", c.csv, chunkRows, err, c.want)
			}
		}
	}
}
