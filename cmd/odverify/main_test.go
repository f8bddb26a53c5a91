package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ocd/internal/depfile"
	"ocd/internal/order"
	"ocd/internal/relation"
)

// TestMain lets a test re-run this binary as odverify itself: with
// ODVERIFY_ARGS set, the process runs main on those newline-separated
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("ODVERIFY_ARGS"); args != "" {
		os.Args = append([]string{"odverify"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var witnessRe = regexp.MustCompile(`(split|swap) rows (\d+)/(\d+)`)

// TestWitnessesViolate runs odverify on random tables against every
// two-column OD and checks that each printed split or swap witness pair
// really violates its dependency: a split agrees on the left-hand side and
// differs on the right, a swap strictly increases on the left and strictly
// decreases on the right.
func TestWitnessesViolate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"A", "B", "C"}
	var lines []string
	for _, x := range names {
		for _, y := range names {
			if x != y {
				lines = append(lines, x+" -> "+y)
			}
		}
	}
	lines = append(lines, "A, B -> C", "C -> A, B")
	witnesses := 0
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		var csv strings.Builder
		csv.WriteString(strings.Join(names, ",") + "\n")
		for i := 0; i < 6+rng.Intn(20); i++ {
			fmt.Fprintf(&csv, "%d,%d,%d\n", rng.Intn(4), rng.Intn(4), rng.Intn(4))
		}
		input, deps := filepath.Join(dir, "t.csv"), filepath.Join(dir, "deps.txt")
		if err := os.WriteFile(input, []byte(csv.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(deps, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}

		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "ODVERIFY_ARGS=-input\n"+input+"\n-deps\n"+deps)
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("odverify: %v\n%s", err, out.String())
			}
		}

		r, err := relation.ReadCSVFile(input, relation.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := depfile.Parse(strings.NewReader(strings.Join(lines, "\n")), r)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "FAIL") {
				continue
			}
			var dep *depfile.Dep
			for i := range parsed {
				if strings.HasPrefix(strings.TrimSpace(line[len("FAIL"):]), parsed[i].Raw+" (") {
					dep = &parsed[i]
				}
			}
			if dep == nil {
				t.Fatalf("trial %d: no dependency matches %q", trial, line)
			}
			ms := witnessRe.FindAllStringSubmatch(line, -1)
			if len(ms) == 0 {
				t.Fatalf("trial %d: failure without a witness: %q", trial, line)
			}
			for _, m := range ms {
				p, _ := strconv.Atoi(m[2])
				q, _ := strconv.Atoi(m[3])
				cx := order.CompareRows(r, p, q, dep.Lhs)
				cy := order.CompareRows(r, p, q, dep.Rhs)
				if (m[1] == "split" && (cx != 0 || cy == 0)) || (m[1] == "swap" && (cx >= 0 || cy <= 0)) {
					t.Fatalf("trial %d: %s witness rows %d/%d do not violate %s", trial, m[1], p, q, dep.Raw)
				}
				witnesses++
			}
		}
	}
	if witnesses < 20 {
		t.Fatalf("only %d witnesses checked — the tables are too easy", witnesses)
	}
}
