// Command odverify checks a list of order dependencies against a CSV file
// and reports which hold, which fail (with a witness pair), and how far the
// failing ones are from holding (approximate-OD error). It turns discovered
// dependencies into enforceable data-quality constraints, the profiling
// application of the paper's introduction.
//
// The dependency file holds one dependency per line:
//
//	income -> bracket            # order dependency
//	income, savings -> savings   # lists are comma separated
//	income ~ savings             # order compatibility
//	# comments and blank lines are ignored
//
// Usage:
//
//	odverify -input data.csv -deps constraints.txt [-eps 0.01]
//	         [-metrics-out m.json] [-trace-out t.json] [-debug-addr :6060]
//
// -trace-out writes a Chrome trace_event file (chrome://tracing, Perfetto)
// with one span per checked dependency, annotated with its verdict —
// profiling which constraints dominate verification time.
//
// Exit status 0 when everything holds (or is within -eps), 1 otherwise,
// 3 when interrupted (Ctrl-C) before all dependencies were checked — the
// verdicts printed so far are then still valid.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ocd/internal/approx"
	"ocd/internal/depfile"
	"ocd/internal/faultinject"
	"ocd/internal/obs"
	"ocd/internal/order"
	"ocd/internal/relation"
)

func main() {
	var (
		input      = flag.String("input", "", "CSV file (required)")
		deps       = flag.String("deps", "", "dependency file (required)")
		eps        = flag.Float64("eps", 0, "tolerated violation fraction (approximate check)")
		sep        = flag.String("sep", ",", "CSV field separator")
		metricsOut = flag.String("metrics-out", "", "write the checker's metrics (cache hits/misses) as JSON to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event file with one span per checked dependency")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /metrics on this address")
	)
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "odverify:", err)
		os.Exit(2)
	}
	if *input == "" || *deps == "" {
		fmt.Fprintln(os.Stderr, "odverify: -input and -deps are required")
		flag.Usage()
		os.Exit(2)
	}

	opts := relation.CSVOptions{}
	if len(*sep) > 0 {
		opts.Comma = rune((*sep)[0])
	}
	r, err := relation.ReadCSVFile(*input, opts)
	if err != nil {
		fail(err)
	}

	df, err := os.Open(*deps)
	if err != nil {
		fail(err)
	}
	parsed, err := depfile.Parse(df, r)
	df.Close()
	if err != nil {
		fail(err)
	}

	// Ctrl-C stops between dependencies; every verdict already printed was
	// fully checked, so partial output stays trustworthy.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if *debugAddr != "" {
		bound, stop, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fail(err)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "odverify: debug server on http://%s/debug/pprof/\n", bound)
	}

	// Span per dependency: the trace shows where verification time goes and
	// each span's "violated" attr carries the verdict. All span calls are
	// nil-safe, so without -trace-out this costs nothing.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer("odverify")
	}
	flushTrace := func() {
		if tracer == nil {
			return
		}
		tracer.Finish()
		if err := writeTrace(*traceOut, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "odverify:", err)
		}
	}

	chk := order.NewPartitionChecker(r)
	chk.SetObs(reg)
	apx := approx.NewChecker(r)
	failures := 0
	checked := 0
	for _, d := range parsed {
		if ctx.Err() != nil {
			fmt.Printf("interrupted after %d of %d dependencies (%d violated so far)\n",
				checked, len(parsed), failures)
			flushTrace()
			os.Exit(3)
		}
		checked++
		sp := tracer.Root().StartChild("check:" + d.Raw)
		before := failures
		func() {
			defer func() {
				if failures > before {
					sp.SetAttr("violated", 1)
				}
				sp.End()
			}()
			if d.OCD {
				if chk.CheckOCD(d.Lhs, d.Rhs) {
					fmt.Printf("OK    %s\n", d.Raw)
					return
				}
				e := apx.OCDError(d.Lhs, d.Rhs)
				if e <= *eps {
					fmt.Printf("OK~   %s (error %.4f within eps)\n", d.Raw, e)
					return
				}
				failures++
				fmt.Printf("FAIL  %s (error %.4f)\n", d.Raw, e)
				return
			}
			full := chk.CheckODFull(d.Lhs, d.Rhs)
			if full.Valid {
				fmt.Printf("OK    %s\n", d.Raw)
				return
			}
			e := apx.Error(d.Lhs, d.Rhs)
			if e <= *eps {
				fmt.Printf("OK~   %s (error %.4f within eps)\n", d.Raw, e)
				return
			}
			failures++
			witness := ""
			if full.HasSplit {
				w := full.SplitWitness
				witness = fmt.Sprintf("split rows %d/%d", w.P, w.Q)
			}
			if full.HasSwap {
				w := full.SwapWitness
				if witness != "" {
					witness += ", "
				}
				witness += fmt.Sprintf("swap rows %d/%d", w.P, w.Q)
			}
			fmt.Printf("FAIL  %s (error %.4f; %s)\n", d.Raw, e, witness)
		}()
	}
	flushTrace()
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			fail(err)
		}
	}
	if failures > 0 {
		fmt.Printf("%d of %d dependencies violated\n", failures, len(parsed))
		os.Exit(1)
	}
	fmt.Printf("all %d dependencies hold\n", len(parsed))
}

func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "odverify:", err)
	os.Exit(1)
}
