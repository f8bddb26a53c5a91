package relation

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// bigCSV builds an in-memory synthetic CSV with the given number of rows —
// large enough that a full parse is measurably slower than an aborted one.
func bigCSV(rows int) string {
	var b strings.Builder
	b.Grow(rows * 24)
	b.WriteString("a,b,c,d\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d,%d,x%d\n", i, i%97, i%13, i%7)
	}
	return b.String()
}

// TestReadCSVStopsPromptly: a pre-cancelled stop flag aborts ingestion of a
// large CSV before parsing it, with an error wrapping ErrStopped.
func TestReadCSVStopsPromptly(t *testing.T) {
	data := bigCSV(200_000)
	start := time.Now()
	_, err := ReadCSV(strings.NewReader(data), "big", CSVOptions{
		Options: Options{Stop: func() bool { return true }},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	// The poll lands within the first stopEvery records; anything near a
	// full 200k-row parse means the flag was ignored. The bound is loose
	// (CI boxes stall) but far below a full parse + encode.
	if elapsed > 2*time.Second {
		t.Fatalf("stop took %v, want a prompt abort", elapsed)
	}
}

// TestReadCSVStopMidParse: a stop armed after N polls aborts between
// records, not only at the end.
func TestReadCSVStopMidParse(t *testing.T) {
	data := bigCSV(50_000)
	polls := 0
	_, err := ReadCSV(strings.NewReader(data), "big", CSVOptions{
		Options: Options{Stop: func() bool {
			polls++
			return polls > 3 // let a few batches through, then cancel
		}},
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestEncodeStopsMidColumn: a stop that arms only after parsing completes
// still aborts during rank encoding (the per-column and per-64k-row polls).
func TestEncodeStopsMidColumn(t *testing.T) {
	rows := make([][]string, 30_000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), fmt.Sprint(i % 3)}
	}
	calls := 0
	_, err := FromStrings("enc", []string{"a", "b"}, rows, Options{
		Stop: func() bool { calls++; return calls > 2 },
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestNilStopUnaffected: ingestion without a stop flag parses exactly as
// before (the hook must be free when unused).
func TestNilStopUnaffected(t *testing.T) {
	r, err := ReadCSV(strings.NewReader(bigCSV(1000)), "plain", CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 1000 || r.NumCols() != 4 {
		t.Fatalf("got %dx%d, want 1000x4", r.NumRows(), r.NumCols())
	}
}

// TestStopNeverEnteredConcurrently: column workers poll Stop through one
// latch, so a Stop func with no synchronisation of its own is safe. Each
// call lingers so that two overlapping calls would be caught.
func TestStopNeverEnteredConcurrently(t *testing.T) {
	const cols, rows = 32, 3000
	header := make([]string, cols)
	for c := range header {
		header[c] = fmt.Sprint("c", c)
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, cols)
		for c := range data[i] {
			data[i][c] = fmt.Sprint(i % (c + 2))
		}
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ",") + "\n")
	for _, row := range data {
		sb.WriteString(strings.Join(row, ",") + "\n")
	}
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var inFlight, overlaps, calls atomic.Int32
		stop := func() bool {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			calls.Add(1)
			time.Sleep(20 * time.Microsecond)
			inFlight.Add(-1)
			return false
		}
		if _, err := FromStrings("t", header, data, Options{Stop: stop}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCSV(strings.NewReader(sb.String()), "t", CSVOptions{Options: Options{Stop: stop}}); err != nil {
			t.Fatal(err)
		}
		if n := overlaps.Load(); n > 0 {
			t.Errorf("GOMAXPROCS=%d: Stop entered concurrently %d times in %d calls", procs, n, calls.Load())
		}
	}
}
