// Command ocdbench is the repository benchmark. It runs one named workload
// through the public entry points only — ocd.LoadCSV, Table.Discover and
// the ocdserve HTTP API — checks every output against reference digests, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"batch_s": {"value": 0.84, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no tracer
// and no registry attached; with -trace 1 they are the per-layer ones, read
// from the engine's own spans and registry and from the service's job traces.
// README.md lists the workloads, the metrics and the layer each one measures.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash ocdbench/run.sh --workload rows --seed 1 --seconds 45 --trace 0
//	bash ocdbench/run.sh -selftest
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// A run repeats its set-up at least minSetupReps times and for at least
// minSetupTime; setup_s is the median, steady even when one set-up takes
// milliseconds.
const (
	minSetupReps = 3
	minSetupTime = 2 * time.Second
)

type config struct {
	root     string // checkout root: go.mod, cmd/ocdserve, examples/data
	commit   string // for the environment stamp
	build    string // scratch space inside the checkout for binaries and data dirs
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

func main() {
	var (
		cfg     config
		secs    = flag.Int("seconds", 45, "measured time of one run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
		self    = flag.Bool("selftest", false, "check every table's digest and exact work counters under two seeds, then exit")
		writeDg = flag.Bool("write-digests", false, "recompute the reference digests into digests.json, then exit")
	)
	flag.StringVar(&cfg.root, "root", ".", "root of the checkout to benchmark")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the checkout, for the environment stamp")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: rows, lattice or serve")
	flag.Int64Var(&cfg.seed, "seed", 0, "seed for row order and client job sequences")
	flag.Parse()
	cfg.seconds = time.Duration(*secs) * time.Second
	cfg.trace = *trace == 1
	cfg.build = filepath.Join(cfg.root, ".bench_build")

	var err error
	switch {
	case *self:
		err = selfTest(cfg)
	case *writeDg:
		err = writeDigests(cfg, filepath.Join(cfg.root, "ocdbench", "digests.json"))
	default:
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocdbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < time.Second {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		return err
	}
	t := &tally{}
	var (
		metrics metricSet
		err     error
	)
	switch cfg.workload {
	case "rows", "lattice":
		metrics, err = runBatch(cfg, t)
	case "serve":
		metrics, err = runServe(cfg, t)
	default:
		return fmt.Errorf("unknown workload %q (want rows, lattice or serve)", cfg.workload)
	}
	if err != nil {
		return err
	}
	// A value that is not a number (a ratio over nothing) is a failed
	// measurement: it is counted as a failure and left out of the result.
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail("metric %s is %v", name, m.Value)
			delete(metrics, name)
		}
	}
	stamp, _ := json.Marshal(environment(cfg)) // lint:allow errdrop — a map of strings and ints always encodes
	fmt.Printf("env %s\n", stamp)
	out, err := json.Marshal(report{
		Correct:   t.failed() == 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// tally counts attempted and failed operations; an operation is one table
// discovery, one HTTP call sequence of a job, a /metrics scrape or a server
// shutdown. Failures are reported on stderr, the first few in full.
type tally struct {
	mu     sync.Mutex
	tried  int64
	failN  int64
	logged int
}

func (t *tally) ok() {
	t.mu.Lock()
	t.tried++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tried++
	t.failN++
	if t.logged < 20 {
		t.logged++
		fmt.Fprintf(os.Stderr, "ocdbench: FAIL "+format+"\n", args...)
	}
}

func (t *tally) attempted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tried
}

func (t *tally) failed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.failN
}

// environment is the stamp printed with every result.
func environment(cfg config) map[string]any {
	return map[string]any{
		"commit":     cfg.commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    runtime.GOMAXPROCS(0), // Options.Workers = 0 selects GOMAXPROCS
		"go":         runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
	}
}

// repeatSetup runs setup repeatedly and returns its median wall time in
// seconds. The state the last call leaves is the one the run measures.
func repeatSetup(setup func() error) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < minSetupReps || time.Since(start) < minSetupTime {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// median returns the middle of xs (the mean of the two middles for an even
// count); NaN, a failed measurement, for no samples.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads VmHWM, the high-water resident set, of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
