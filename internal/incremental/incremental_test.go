package incremental

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"ocd/internal/attr"
	"ocd/internal/core"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func newM(t *testing.T, rows [][]string, cols ...string) *Maintainer {
	t.Helper()
	if cols == nil {
		cols = []string{"A", "B"}
	}
	m, err := New("t", cols, rows, relation.Options{}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAppendPreservesValidDeps(t *testing.T) {
	m := newM(t, [][]string{{"1", "1"}, {"2", "2"}})
	if len(m.OCDs()) == 0 && len(m.EquivClasses()) == 0 {
		t.Fatal("expected an initial dependency between A and B")
	}
	rep, err := m.AppendRows([][]string{{"3", "3"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DiedOCDs) != 0 || len(rep.DiedODs) != 0 || len(rep.BrokenClasses) != 0 {
		t.Errorf("consistent append killed dependencies: %+v", rep)
	}
	if m.NumRows() != 3 {
		t.Errorf("NumRows = %d", m.NumRows())
	}
}

func TestAppendKillsDeps(t *testing.T) {
	// A ↔ B initially; the appended row breaks the alignment.
	m := newM(t, [][]string{{"1", "1"}, {"2", "2"}})
	rep, err := m.AppendRows([][]string{{"3", "0"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BrokenClasses) != 1 {
		t.Errorf("equivalence class should shatter: %+v", rep)
	}
	// Everything still tracked must hold on the new instance.
	assertAllValid(t, m)
}

func TestConstantBreaks(t *testing.T) {
	m := newM(t, [][]string{{"1", "7"}, {"2", "7"}})
	if len(m.Constants()) != 1 {
		t.Fatalf("Constants = %v", m.Constants())
	}
	rep, err := m.AppendRows([][]string{{"3", "8"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BrokenConstants) != 1 || rep.BrokenConstants[0] != 1 {
		t.Errorf("constant should break: %+v", rep)
	}
	if len(m.Constants()) != 0 {
		t.Error("broken constant still tracked")
	}
}

func TestAppendFieldCountError(t *testing.T) {
	m := newM(t, [][]string{{"1", "1"}})
	if _, err := m.AppendRows([][]string{{"1"}}); err == nil {
		t.Error("short row should error")
	}
	if m.NumRows() != 1 {
		t.Error("failed append should not change the row count")
	}
}

// TestAntiMonotonicity: across random appends, every alive dependency is
// valid and every reported death is genuinely invalid; an append that did
// not force a re-discovery only shrinks the alive set, by exactly the
// reported deaths.
func TestAntiMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for trial := 0; trial < 15; trial++ {
		var rows [][]string
		for i := 0; i < 5+rng.Intn(10); i++ {
			rows = append(rows, []string{
				strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)),
			})
		}
		m, err := New("t", []string{"A", "B", "C"}, rows, relation.Options{}, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		prev := len(m.OCDs()) + len(m.ODs())
		for step := 0; step < 4; step++ {
			var batch [][]string
			for i := 0; i < 1+rng.Intn(4); i++ {
				batch = append(batch, []string{
					strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(4)),
				})
			}
			rep, err := m.AppendRows(batch)
			if err != nil {
				t.Fatal(err)
			}
			now := len(m.OCDs()) + len(m.ODs())
			if !rep.Rediscovered && prev-now != len(rep.DiedOCDs)+len(rep.DiedODs) {
				t.Fatalf("trial %d: death accounting wrong", trial)
			}
			prev = now
			assertAllValid(t, m)
			// deaths are genuine
			chk := order.NewPartitionChecker(relFromMaintainer(m))
			for _, d := range rep.DiedOCDs {
				if chk.CheckOCD(d.X, d.Y) {
					t.Fatalf("trial %d: OCD reported dead but valid", trial)
				}
			}
			for _, d := range rep.DiedODs {
				if chk.CheckOD(d.X, d.Y) {
					t.Fatalf("trial %d: OD reported dead but valid", trial)
				}
			}
		}
	}
}

func relFromMaintainer(m *Maintainer) *relation.Relation { return m.rel }

func assertAllValid(t *testing.T, m *Maintainer) {
	t.Helper()
	chk := order.NewPartitionChecker(m.rel)
	for _, d := range m.OCDs() {
		if !chk.CheckOCD(d.X, d.Y) {
			t.Fatalf("alive OCD %v~%v invalid", d.X, d.Y)
		}
	}
	for _, d := range m.ODs() {
		if !chk.CheckOD(d.X, d.Y) {
			t.Fatalf("alive OD %v→%v invalid", d.X, d.Y)
		}
	}
	for _, c := range m.Constants() {
		if !m.rel.IsConstant(c) {
			t.Fatalf("alive constant %v varies", c)
		}
	}
	for _, class := range m.EquivClasses() {
		for _, other := range class[1:] {
			if !chk.OrderEquivalent(attr.Singleton(class[0]), attr.Singleton(other)) {
				t.Fatalf("alive class %v broken", class)
			}
		}
	}
}

func TestAddColumn(t *testing.T) {
	m := newM(t, [][]string{{"1", "5"}, {"2", "9"}, {"3", "2"}})
	if err := m.AddColumn("C", []string{"10", "20", "30"}); err != nil {
		t.Fatal(err)
	}
	// A ↔ C now: the fresh discovery must pick it up.
	found := false
	for _, class := range m.EquivClasses() {
		if len(class) == 2 && class[0] == 0 && class[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("A ↔ C missing after AddColumn: %v", m.EquivClasses())
	}
	if err := m.AddColumn("D", []string{"1"}); err == nil {
		t.Error("wrong value count should error")
	}
}

func TestMaintenanceCheaperThanRediscovery(t *testing.T) {
	// On a dependency-rich instance, revalidating the tracked set must use
	// fewer checks than a fresh discovery run.
	var rows [][]string
	for i := 0; i < 50; i++ {
		s := strconv.Itoa
		rows = append(rows, []string{s(i), s(i / 5), s(i / 10), s(i * 2)})
	}
	m, err := New("t", []string{"A", "B", "C", "D"}, rows, relation.Options{}, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.AppendRows([][]string{{"60", "12", "6", "120"}})
	if err != nil {
		t.Fatal(err)
	}
	if full := m.RediscoveryCost(); rep.Checks >= full {
		t.Errorf("maintenance used %d checks, rediscovery %d — no saving", rep.Checks, full)
	}
}

func TestRevalidationsAccumulate(t *testing.T) {
	m := newM(t, [][]string{{"1", "1"}, {"2", "2"}})
	if m.Revalidations() != 0 {
		t.Error("fresh maintainer should have zero revalidations")
	}
	if _, err := m.AppendRows([][]string{{"3", "3"}}); err != nil {
		t.Fatal(err)
	}
	first := m.Revalidations()
	if first == 0 {
		t.Error("revalidations not counted")
	}
	if _, err := m.AppendRows([][]string{{"4", "4"}}); err != nil {
		t.Fatal(err)
	}
	if m.Revalidations() <= first {
		t.Error("revalidations should accumulate")
	}
	if m.RediscoveryCost() <= 0 {
		t.Error("rediscovery cost should be positive")
	}
}

// TestAppendFindsDependenciesHiddenByReduction is the witness for lost
// dependencies: A and B start as one equivalence class, so the first run
// only tracks A ~ C. The appended row shatters the class and kills A ~ C;
// a fresh discovery on the grown rows finds dependencies over B that the
// maintainer must report too.
func TestAppendFindsDependenciesHiddenByReduction(t *testing.T) {
	m := newM(t, [][]string{{"1", "1", "1"}, {"1", "1", "2"}, {"2", "2", "2"}}, "A", "B", "C")
	rep, err := m.AppendRows([][]string{{"0", "3", "5"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rediscovered || len(rep.BrokenClasses) != 1 {
		t.Fatalf("shattered class must force a re-discovery: %+v", rep)
	}
	names := func(a attr.ID) string { return m.colNames[a] }
	have := map[string]bool{}
	for _, d := range m.OCDs() {
		have[d.Format(names)] = true
	}
	for _, d := range m.ODs() {
		have[d.Format(names)] = true
	}
	for _, want := range []string{"[B] ~ [C]", "[B] ~ [C,A]", "[B,A] ~ [C]", "[C,A] -> [B]"} {
		if !have[want] {
			t.Errorf("missing %s; alive: %v", want, have)
		}
	}
	assertMatchesFresh(t, m)
}

// TestQuickAppendMatchesFreshDiscovery: after every random append, the
// maintained OCDs, ODs, constants and classes equal a fresh core.Discover
// on the grown rows.
func TestQuickAppendMatchesFreshDiscovery(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ncols, dom := 2+rng.Intn(3), 1+rng.Intn(4)
		cols := []string{"A", "B", "C", "D"}[:ncols]
		batch := func(n int) [][]string {
			rows := make([][]string, n)
			for i := range rows {
				rows[i] = make([]string, ncols)
				for j := range rows[i] {
					rows[i][j] = strconv.Itoa(rng.Intn(dom))
				}
			}
			return rows
		}
		m, err := New("t", cols, batch(1+rng.Intn(6)), relation.Options{}, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			if _, err := m.AppendRows(batch(1 + rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
			if diff := freshDiff(m); diff != "" {
				t.Logf("seed %d step %d: %s", seed, step, diff)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(191))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// freshDiff describes how the maintained set differs from a fresh
// discovery on the same rows; empty when they are equal.
func freshDiff(m *Maintainer) string {
	fresh := core.Discover(m.rel, m.discOpts)
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"OCDs", m.OCDs(), fresh.OCDs},
		{"ODs", m.ODs(), fresh.ODs},
		{"constants", m.Constants(), fresh.Constants},
		{"classes", m.EquivClasses(), fresh.EquivClasses},
	} {
		if g, w := fmt.Sprint(c.got), fmt.Sprint(c.want); g != w {
			return fmt.Sprintf("%s = %s, fresh run %s", c.what, g, w)
		}
	}
	return ""
}

func assertMatchesFresh(t *testing.T, m *Maintainer) {
	t.Helper()
	if diff := freshDiff(m); diff != "" {
		t.Fatal(diff)
	}
}
