package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	ocd "ocd"
)

// minPasses is the fewest measured passes a batch run makes, however short
// its -seconds.
const minPasses = 3

// pass is one measured pass over a workload's tables.
type pass struct {
	wall    time.Duration
	alloc   uint64        // bytes allocated by this process during the pass
	peakRSS float64       // MB, this process's high-water RSS during the pass
	tree    *span         // traced passes only
	reg     *ocd.Metrics  // traced passes only
	res     []*ocd.Result // traced passes only
}

// runPass loads, discovers and checks every table once. A traced pass wraps
// its own spans around ocd.LoadCSV, Table.Discover and the check, and hands
// the engine a tracer and a registry; an untraced pass attaches neither.
func runPass(ds []dataset, refs map[string]reference, traced bool, t *tally) pass {
	var (
		p    pass
		tr   *ocd.Tracer
		root *ocd.Span
		ms0  runtime.MemStats
		ms1  runtime.MemStats
	)
	// Every pass starts from the same state: the previous pass's garbage
	// collected and returned to the OS, and the kernel's RSS high-water
	// mark reset, so VmHWM afterwards is this pass's peak.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		t.fail("resetting the RSS high-water mark: %v", err)
	}
	if traced {
		tr = ocd.NewTracer("pass")
		root = tr.Root()
		p.reg = ocd.NewMetrics()
	}
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for _, d := range ds {
		sp := root.StartChild("LoadCSV")
		var lo []ocd.LoadOption
		if traced {
			lo = append(lo, ocd.WithTrace(sp))
		}
		tbl, err := ocd.LoadCSV(bytes.NewReader(d.csv), d.name, lo...)
		sp.End()
		if err != nil {
			t.fail("%s: load: %v", d.name, err)
			continue
		}
		sp = root.StartChild("Discover")
		res, err := tbl.Discover(ocd.Options{Metrics: p.reg, Trace: sp})
		sp.End()
		if err != nil {
			t.fail("%s: discover: %v", d.name, err)
			continue
		}
		sp = root.StartChild("check")
		err = verify(refs, d.name, outcomeOf(res))
		sp.End()
		if err != nil {
			t.fail("%v", err)
			continue
		}
		t.ok()
		if traced {
			p.res = append(p.res, res)
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	rss, err := peakRSSMB("self")
	if err != nil {
		t.fail("reading the RSS high-water mark: %v", err)
	}
	p.peakRSS = rss
	if traced {
		tr.Finish()
		tree, err := treeOf(tr)
		if err != nil {
			t.fail("trace: %v", err)
		}
		p.tree = tree
	}
	return p
}

// runBatch is the rows and lattice workloads: passes over in-memory CSV
// bytes, each table loaded with ocd.LoadCSV and discovered with
// Table.Discover under default options, until -seconds have passed.
func runBatch(cfg config, t *tally) (metricSet, error) {
	refs, err := references()
	if err != nil {
		return nil, err
	}
	var ds []dataset
	setup, err := repeatSetup(func() (err error) {
		ds, err = makeDatasets(cfg.root, cfg.workload, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	runPass(ds, refs, cfg.trace, t) // warm-up: lazy runtime set-up, heap growth

	var plain, traced []pass
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; len(plain)+len(traced) < minPasses || time.Now().Before(deadline); i++ {
		// A traced run alternates untraced and traced passes, so the
		// tracing overhead is measured under the same conditions.
		if cfg.trace && i%2 == 1 {
			traced = append(traced, runPass(ds, refs, true, t))
		} else {
			plain = append(plain, runPass(ds, refs, false, t))
		}
	}

	if !cfg.trace {
		var walls, allocs, rss []float64
		for _, p := range plain {
			walls = append(walls, p.wall.Seconds())
			allocs = append(allocs, float64(p.alloc)/(1<<20))
			rss = append(rss, p.peakRSS)
		}
		fmt.Fprintf(os.Stderr, "%s: %d passes, pass s p25 %.4f p50 %.4f p75 %.4f\n", cfg.workload, len(walls),
			quantile(walls, 0.25), median(walls), quantile(walls, 0.75))
		m := metricSet{}
		m.set("batch_s", "s", median(walls))
		m.set("alloc_mb", "MB", median(allocs))
		m.set("peak_rss_mb", "MB", median(rss))
		m.set("setup_s", "s", setup)
		return m, nil
	}
	return batchLayers(ds, plain, traced)
}

// batchLayers derives the per-layer metrics of a traced batch run. Times
// are per pass (sums over the pass's tables), medians over traced passes;
// counts are exact per pass.
func batchLayers(ds []dataset, plain, traced []pass) (metricSet, error) {
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced pass")
	}
	per := func(f func(l layers) float64) float64 {
		var xs []float64
		for _, p := range traced {
			l := layers{}
			l.add(p.tree)
			xs = append(xs, f(l))
		}
		return median(xs)
	}
	all := layers{}
	for _, p := range traced {
		all.add(p.tree)
	}
	fmt.Fprintf(os.Stderr, "layer table, per pass over %d traced passes:\n", len(traced))
	all.print(os.Stderr, float64(len(traced)), "pass")

	workers := float64(runtime.GOMAXPROCS(0))
	loadMS := per(func(l layers) float64 { return l.totalMS("LoadCSV") })
	levelsMS := per(func(l layers) float64 { return l.totalMS("level") })
	reductionMS := per(func(l layers) float64 { return l.totalMS("reduction") })

	// Exact counts come from the first traced pass; every pass does the
	// same work.
	first := traced[0]
	var checks, cands, levels, ocds int64
	for _, r := range first.res {
		checks += r.Stats.Checks
		cands += r.Stats.Candidates
		levels += int64(r.Stats.Levels)
		ocds += int64(len(r.OCDs))
	}
	snap := first.reg.Snapshot()
	hits := snap.Counters["order.index_cache.hits"] + snap.Counters["order.partition_cache.hits"]
	misses := snap.Counters["order.index_cache.misses"] + snap.Counters["order.partition_cache.misses"]
	lat := snap.Histograms["discover.check_latency_ns"]
	firstLayers := layers{}
	firstLayers.add(first.tree)

	var plainWalls, tracedWalls []float64
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}

	m := metricSet{}
	m.set("relation.load_ms", "ms", loadMS)
	m.set("relation.parse_ms", "ms", per(func(l layers) float64 { return l.totalMS("parse") }))
	m.set("relation.rank_encode_ms", "ms", per(func(l layers) float64 { return l.totalMS("rank-encode") }))
	m.set("relation.mb_per_s", "MB/s", float64(csvBytes(ds))/(1<<20)/(loadMS/1e3))
	m.set("core.reduction_ms", "ms", reductionMS)
	m.set("core.reduction_checks", "count", float64(firstLayers.attr("reduction", "checks")))
	m.set("core.levels_ms", "ms", levelsMS)
	m.set("core.merge_ms", "ms", per(func(l layers) float64 { return l.selfMS("level") }))
	m.set("core.worker_busy_frac", "ratio", per(func(l layers) float64 {
		return l.totalMS("worker") / (workers * l.totalMS("level"))
	}))
	m.set("core.candidates", "count", float64(cands))
	m.set("core.checks", "count", float64(checks))
	m.set("core.levels", "count", float64(levels))
	m.set("core.prunes", "count", float64(snap.Counters["discover.prunes"]))
	m.set("core.valid_ratio", "ratio", float64(ocds)/float64(cands))
	m.set("order.check_ns.p50", "ns", histQuantile(lat.Bounds, lat.Counts, 0.5))
	m.set("order.check_ns.p99", "ns", histQuantile(lat.Bounds, lat.Counts, 0.99))
	m.set("order.checks_per_s", "1/s", float64(checks)/((reductionMS+levelsMS)/1e3))
	m.set("order.cache_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	m.set("obs.trace_overhead_frac", "ratio", median(tracedWalls)/median(plainWalls)-1)
	return m, nil
}

// histQuantile estimates a quantile from a fixed-bucket histogram,
// interpolating linearly inside the bucket that holds it. counts has one
// entry per bound plus an overflow bucket, read as ending at the last bound.
func histQuantile(bounds, counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen int64
	for i, c := range counts {
		if c == 0 || float64(seen+c) < rank {
			seen += c
			continue
		}
		lo, hi := 0.0, float64(bounds[min(i, len(bounds)-1)])
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		return lo + (hi-lo)*(rank-float64(seen))/float64(c)
	}
	return float64(bounds[len(bounds)-1])
}
