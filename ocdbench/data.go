package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"ocd/internal/datagen"
	"ocd/internal/relation"
)

// dataset is one input table as the program receives it: CSV bytes.
type dataset struct {
	name string
	csv  []byte
}

// source generates one table of a workload before its rows are shuffled.
type source struct {
	name string
	gen  func(root string) ([]byte, error)
}

// generated writes a datagen table as CSV; generation runs at set-up, so
// set-up time covers it.
func generated(gen func() *relation.Relation) func(string) ([]byte, error) {
	return func(string) ([]byte, error) {
		var b bytes.Buffer
		err := gen().WriteCSV(&b)
		return b.Bytes(), err
	}
}

// sources lists each workload's tables. rows holds the tall tables of the
// paper's Table 6, lattice the candidate-heavy ones, serve the small tables
// submitted as jobs.
func sources(workload string) []source {
	switch workload {
	case "rows":
		return []source{
			{"LETTER", generated(func() *relation.Relation { return datagen.Letter(20000) })},
			{"LINEITEM", generated(func() *relation.Relation { return datagen.LineItem(20000) })},
			{"DBTESMA", generated(func() *relation.Relation { return datagen.DBTesma(5000) })},
			{"NCVOTER_1K", generated(datagen.NCVoter1K)},
		}
	case "lattice":
		return []source{
			{"HEPATITIS", generated(datagen.Hepatitis)},
			{"HORSE", generated(datagen.Horse)},
		}
	case "serve":
		return []source{
			{"TAXINFO", func(root string) ([]byte, error) {
				return os.ReadFile(filepath.Join(root, "examples", "data", "taxinfo.csv"))
			}},
			{"LETTER_500", generated(func() *relation.Relation { return datagen.Letter(500) })},
			{"LINEITEM_500", generated(func() *relation.Relation { return datagen.LineItem(500) })},
			{"NCVOTER_1K_200", generated(func() *relation.Relation { return datagen.NCVoter1K().HeadRows(200) })},
			{"DBTESMA_200", generated(func() *relation.Relation { return datagen.DBTesma(200) })},
		}
	}
	return nil
}

// makeDatasets generates a workload's tables and shuffles the data rows of
// each with the seed. Results and work counts do not depend on row order, so
// every seed has the same reference digests.
func makeDatasets(root, workload string, seed int64) ([]dataset, error) {
	srcs := sources(workload)
	if srcs == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset, len(srcs))
	for i, s := range srcs {
		raw, err := s.gen(root)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", s.name, err)
		}
		shuffled, err := shuffleRows(raw, rng)
		if err != nil {
			return nil, fmt.Errorf("shuffling %s: %w", s.name, err)
		}
		out[i] = dataset{name: s.name, csv: shuffled}
	}
	return out, nil
}

// shuffleRows permutes the records after the header of a CSV document.
func shuffleRows(raw []byte, rng *rand.Rand) ([]byte, error) {
	records, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) > 1 {
		body := records[1:]
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	}
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	if err := w.WriteAll(records); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func csvBytes(ds []dataset) int {
	n := 0
	for _, d := range ds {
		n += len(d.csv)
	}
	return n
}
