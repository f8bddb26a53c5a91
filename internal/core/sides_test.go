package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"ocd/internal/datagen"
	"ocd/internal/obs"
)

// outputOf renders what must not depend on how a candidate obtained its
// sides: the OCDs, the ODs and the check count.
func outputOf(res *Result) string {
	return fmt.Sprintf("ocds %v\nods %v\nchecks %d", res.OCDs, res.ODs, res.Stats.Checks)
}

// TestSidePathsAgree: a candidate gets its sides by extending its parent's
// (a fresh run), by deriving both from the column cache (a run resumed
// from a level-barrier snapshot, which carries no sides), or by deriving
// them again at every level (a 1-byte budget with a spill dir drops the
// sides at each barrier). All three give byte-identical OCDs, ODs and
// Stats.Checks, for one worker and for two.
func TestSidePathsAgree(t *testing.T) {
	r := datagen.Horse()
	var want string
	for _, workers := range []int{1, 2} {
		fresh := Discover(r, Options{Workers: workers})
		if fresh.Stats.Truncated || fresh.Stats.Levels < 4 {
			t.Fatalf("workers=%d: fresh run %+v, want a complete run of several levels", workers, fresh.Stats)
		}
		got := outputOf(fresh)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: fresh run differs from workers=1:\n%s\nwant:\n%s", workers, got, want)
		}

		// MaxLevel ℓ leaves the barrier before level ℓ+1; the last one is
		// the final, empty frontier.
		for maxLevel := 1; maxLevel <= fresh.Stats.Levels+1; maxLevel++ {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			Discover(r, Options{Workers: workers, MaxLevel: maxLevel, CheckpointPath: ckpt})
			resumed, err := DiscoverContext(context.Background(), r,
				Options{Workers: workers, Resume: loadSnapshot(t, ckpt)})
			if err != nil {
				t.Fatalf("workers=%d, resume after level %d: %v", workers, maxLevel, err)
			}
			if got := outputOf(resumed); got != want {
				t.Errorf("workers=%d, resume after level %d:\n%s\nwant:\n%s", workers, maxLevel, got, want)
			}
		}

		budget := Discover(r, Options{
			Workers:        workers,
			MaxMemoryBytes: 1,
			SpillDir:       filepath.Join(t.TempDir(), "spill"),
		})
		if budget.Stats.Truncated || budget.Stats.MemoryReleases < budget.Stats.Levels {
			t.Fatalf("workers=%d: budgeted run %+v, want sides dropped at every barrier", workers, budget.Stats)
		}
		if got := outputOf(budget); got != want {
			t.Errorf("workers=%d, sides dropped every level:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestDerivationCounters pins the derivation work counters on HEPATITIS:
// each column partition is derived once, and every later candidate derives
// at most one side, one counting-sort pass over all rows, from its parent.
func TestDerivationCounters(t *testing.T) {
	r := datagen.Hepatitis()
	reg := obs.NewRegistry()
	res := Discover(r, Options{Workers: 1, Metrics: reg})
	s := reg.Snapshot()
	derived, rows := s.Counters["order.partitions_derived"], s.Counters["order.rows_derived"]
	if res.Stats.Candidates != 128890 || res.Stats.Checks != 138080 {
		t.Fatalf("candidates, checks = %d, %d; want 128890, 138080", res.Stats.Candidates, res.Stats.Checks)
	}
	if derived != 128720 || rows != 128720*int64(r.NumRows()) {
		t.Errorf("partitions_derived, rows_derived = %d, %d; want 128720, %d",
			derived, rows, 128720*int64(r.NumRows()))
	}
	if derived > res.Stats.Candidates {
		t.Errorf("%d derivations for %d candidates", derived, res.Stats.Candidates)
	}
}
