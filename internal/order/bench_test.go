package order

import (
	"math/rand"
	"testing"

	"ocd/internal/attr"
)

func newBenchRel(rows int) *benchEnv {
	rng := rand.New(rand.NewSource(271))
	r := randomRelation(rng, rows, 6, 50)
	return &benchEnv{r: NewPartitionChecker(r)}
}

type benchEnv struct {
	r *PartitionChecker
}

func BenchmarkCheckOCDSmall(b *testing.B) {
	env := newBenchRel(1_000)
	x, y := attr.NewList(0, 1), attr.NewList(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.r.CheckOCD(x, y)
	}
}

func BenchmarkCheckODFullSmall(b *testing.B) {
	env := newBenchRel(1_000)
	x, y := attr.NewList(0), attr.NewList(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.r.CheckODFull(x, y)
	}
}

func BenchmarkPartitionExtend(b *testing.B) {
	env := newBenchRel(10_000)
	base := Base(env.r.Relation().NumRows())
	sp := base.Extend(env.r.Relation(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Extend(env.r.Relation(), 1)
	}
}

func BenchmarkCompareRows(b *testing.B) {
	env := newBenchRel(1_000)
	r := env.r.Relation()
	l := attr.NewList(0, 1, 2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareRows(r, i%1000, (i+1)%1000, l)
	}
}
