package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"

	ocd "ocd"
)

// outcome is the part of a discovery result the benchmark checks. It
// decodes from a service result document as well.
type outcome struct {
	OCDs             []ocd.OCD  `json:"ocds"`
	ODs              []ocd.OD   `json:"ods"`
	ConstantColumns  []string   `json:"constant_columns"`
	EquivalentGroups [][]string `json:"equivalent_groups"`
	Truncated        bool       `json:"truncated"`
}

func outcomeOf(r *ocd.Result) outcome {
	return outcome{
		OCDs:             r.OCDs,
		ODs:              r.ODs,
		ConstantColumns:  r.ConstantColumns,
		EquivalentGroups: r.EquivalentGroups,
		Truncated:        r.Stats.Truncated,
	}
}

// digest is a canonical hash of the dependencies: sorted OCDs (each with its
// two sides in a fixed order, as X ~ Y and Y ~ X are one dependency), sorted
// ODs, sorted constant columns and sorted equivalence groups.
func (o outcome) digest() string {
	list := func(cols []string) string { return "[" + strings.Join(cols, ",") + "]" }
	var ocds, ods, groups []string
	for _, d := range o.OCDs {
		l, r := list(d.Left), list(d.Right)
		if r < l {
			l, r = r, l
		}
		ocds = append(ocds, l+" ~ "+r)
	}
	for _, d := range o.ODs {
		ods = append(ods, list(d.Left)+" -> "+list(d.Right))
	}
	for _, g := range o.EquivalentGroups {
		g = append([]string(nil), g...)
		sort.Strings(g)
		groups = append(groups, list(g))
	}
	consts := append([]string(nil), o.ConstantColumns...)
	h := sha256.New()
	for _, sec := range []struct {
		name  string
		lines []string
	}{{"ocds", ocds}, {"ods", ods}, {"constants", consts}, {"equivalent", groups}} {
		sort.Strings(sec.lines)
		fmt.Fprintf(h, "%s %d\n%s\n", sec.name, len(sec.lines), strings.Join(sec.lines, "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is one table's expected result.
type reference struct {
	Digest string `json:"digest"`
	OCDs   int    `json:"ocds"`
	ODs    int    `json:"ods"`
}

//go:embed digests.json
var digestsJSON []byte

func references() (map[string]reference, error) {
	refs := map[string]reference{}
	if err := json.Unmarshal(digestsJSON, &refs); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return refs, nil
}

// verify checks one result against its table's reference.
func verify(refs map[string]reference, table string, o outcome) error {
	ref, ok := refs[table]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference digest", table)
	case o.Truncated:
		return fmt.Errorf("%s: result truncated", table)
	case o.digest() != ref.Digest:
		return fmt.Errorf("%s: digest %s (%d OCDs, %d ODs), want %s (%d OCDs, %d ODs)",
			table, o.digest(), len(o.OCDs), len(o.ODs), ref.Digest, ref.OCDs, ref.ODs)
	}
	return nil
}

// counts are the exact work counters of one table's discovery.
type counts struct {
	Checks, Candidates, Levels, Prunes, ReductionChecks int64
}

// discoverOnce loads and discovers one table with a registry and a tracer
// attached and returns its result and exact work counters.
func discoverOnce(d dataset) (outcome, counts, error) {
	tr := ocd.NewTracer("selftest")
	reg := ocd.NewMetrics()
	tbl, err := ocd.LoadCSV(bytes.NewReader(d.csv), d.name)
	if err != nil {
		return outcome{}, counts{}, err
	}
	res, err := tbl.Discover(ocd.Options{Metrics: reg, Trace: tr.Root()})
	if err != nil {
		return outcome{}, counts{}, err
	}
	tr.Finish()
	root, err := treeOf(tr)
	if err != nil {
		return outcome{}, counts{}, err
	}
	var c counts
	c.Checks, c.Candidates, c.Levels = res.Stats.Checks, res.Stats.Candidates, int64(res.Stats.Levels)
	c.Prunes = reg.Snapshot().Counters["discover.prunes"]
	root.walk(func(s *span) {
		if s.Name == "reduction" {
			c.ReductionChecks += s.Attrs["checks"]
		}
	})
	return outcomeOf(res), c, nil
}

// selfTest discovers every table of every workload under seeds 0 and 1 and
// fails unless each result matches its reference digest and the exact work
// counters agree between the seeds: a change in them marks an algorithmic
// change, never noise.
func selfTest(cfg config) error {
	refs, err := references()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range []string{"rows", "lattice", "serve"} {
		var first []counts
		for _, seed := range []int64{0, 1} {
			ds, err := makeDatasets(cfg.root, w, seed)
			if err != nil {
				return err
			}
			for i, d := range ds {
				o, c, err := discoverOnce(d)
				if err == nil {
					err = verify(refs, d.name, o)
				}
				if err != nil {
					errs = append(errs, fmt.Errorf("seed %d: %w", seed, err))
					continue
				}
				if seed == 0 {
					first = append(first, c)
				} else if i < len(first) && c != first[i] {
					errs = append(errs, fmt.Errorf("%s: counters differ between seeds: %+v vs %+v", d.name, first[i], c))
				}
				fmt.Printf("%-7s %-15s seed %d  %+v  ok\n", w, d.name, seed, c)
			}
		}
	}
	return errors.Join(errs...)
}

// writeDigests records the seed-0 result of every table as the reference.
func writeDigests(cfg config, path string) error {
	refs := map[string]reference{}
	for _, w := range []string{"rows", "lattice", "serve"} {
		ds, err := makeDatasets(cfg.root, w, 0)
		if err != nil {
			return err
		}
		for _, d := range ds {
			o, _, err := discoverOnce(d)
			if err != nil {
				return fmt.Errorf("%s: %w", d.name, err)
			}
			if o.Truncated {
				return fmt.Errorf("%s: result truncated", d.name)
			}
			refs[d.name] = reference{Digest: o.digest(), OCDs: len(o.OCDs), ODs: len(o.ODs)}
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
