package ocd

import (
	"encoding/csv"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ocd/internal/checkpoint"
)

// TestCheckpointResumeAPI drives the public durable-run surface end to end:
// a level-capped run leaves a snapshot, ResumeFrom completes it, and the
// combined output equals an uninterrupted run.
func TestCheckpointResumeAPI(t *testing.T) {
	tbl := loadTax(t)
	fresh, err := tbl.Discover(Options{})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "tax.ckpt")
	part, err := tbl.Discover(Options{MaxLevel: 2, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !part.Stats.Truncated || part.Stats.Checkpoints == 0 {
		t.Fatalf("expected a truncated checkpointed run, got %+v", part.Stats)
	}

	resumed, err := tbl.Discover(Options{ResumeFrom: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Stats.Resumed {
		t.Error("Stats.Resumed not set on the resumed run")
	}
	if !reflect.DeepEqual(fresh.OCDs, resumed.OCDs) || !reflect.DeepEqual(fresh.ODs, resumed.ODs) {
		t.Errorf("resumed output differs from fresh:\nfresh OCDs %v ODs %v\nresumed OCDs %v ODs %v",
			fresh.OCDs, fresh.ODs, resumed.OCDs, resumed.ODs)
	}
	if fresh.Stats.Checks != resumed.Stats.Checks {
		t.Errorf("checks: fresh %d, resumed total %d", fresh.Stats.Checks, resumed.Stats.Checks)
	}
}

// TestResumeFromRefusesForeignSnapshot: a snapshot taken on different data
// must be rejected with ErrCheckpointMismatch, fast.
func TestResumeFromRefusesForeignSnapshot(t *testing.T) {
	tbl := loadTax(t)
	ckpt := filepath.Join(t.TempDir(), "tax.ckpt")
	if _, err := tbl.Discover(Options{MaxLevel: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}

	other, err := LoadCSV(strings.NewReader("a,b\n1,2\n2,1\n3,3\n"), "other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Discover(Options{ResumeFrom: ckpt}); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestResumeFromRejectsTornSnapshot: a truncated snapshot file is refused
// with ErrCheckpointCorrupt before any discovery work happens.
func TestResumeFromRejectsTornSnapshot(t *testing.T) {
	tbl := loadTax(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "tax.ckpt")
	if _, err := tbl.Discover(Options{MaxLevel: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, whole[:len(whole)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Discover(Options{ResumeFrom: torn}); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := tbl.Discover(Options{ResumeFrom: filepath.Join(dir, "missing.ckpt")}); err == nil {
		t.Fatal("resume from a missing file must error")
	}
}

// TestCheckpointFingerprintAcrossLoaders: LoadCSV, LoadCSVChunked at any
// chunk size and NewTable encode through one path, so a checkpoint taken
// on a table from one loader verifies against the same data from another.
func TestCheckpointFingerprintAcrossLoaders(t *testing.T) {
	data := taxCSV()
	recs, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadCSV(strings.NewReader(data), "taxinfo")
	if err != nil {
		t.Fatal(err)
	}
	want := checkpoint.FingerprintOf(base.rel, "taxinfo")
	others := map[string]func() (*Table, error){
		"LoadCSVChunked(1)": func() (*Table, error) { return LoadCSVChunked(strings.NewReader(data), "taxinfo", Chunked(1)) },
		"LoadCSVChunked(4)": func() (*Table, error) { return LoadCSVChunked(strings.NewReader(data), "taxinfo", Chunked(4)) },
		"NewTable":          func() (*Table, error) { return NewTable("taxinfo", recs[0], recs[1:]) },
	}
	for name, load := range others {
		tbl, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := checkpoint.FingerprintOf(tbl.rel, "taxinfo"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fingerprint %+v, want %+v", name, got, want)
		}
	}
}
