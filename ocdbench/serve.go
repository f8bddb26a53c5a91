package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	serveClients = 2 // closed loop: each client waits for its job before the next
	scrapeEvery  = 4 // a client scrapes /metrics after every 4th job
)

// server is one ocdserve process on a fresh data dir.
type server struct {
	cmd   *exec.Cmd
	dir   string
	base  string // http://host:port of the jobs API
	debug string // http://host:port of /debug/vars
	exit  chan error
}

// freePort reserves an ephemeral localhost port for the debug listener,
// whose bound address ocdserve does not report under -quiet.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer launches bin on a fresh data dir with default job settings
// and waits until /healthz answers.
func startServer(bin, build string, n int) (*server, error) {
	dir := filepath.Join(build, fmt.Sprintf("serve-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	debugAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	addrFile := dir + ".addr"
	os.Remove(addrFile) // lint:allow errdrop — a stale file from a killed run; absence is the normal case
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-debug-addr", debugAddr, "-quiet")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, dir: dir, debug: "http://" + debugAddr, exit: make(chan error, 1)}
	go func() { s.exit <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-s.exit:
			os.RemoveAll(dir) // lint:allow errdrop — the start-up failure is the error reported
			return nil, fmt.Errorf("ocdserve exited during start-up: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ocdserve not healthy within 30s")
		}
		if s.base == "" {
			data, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(data, []byte("\n")) {
				continue
			}
			s.base = "http://" + strings.TrimSpace(string(data))
			os.Remove(addrFile) // lint:allow errdrop — read once; the data dir check ignores it
		}
		resp, err := http.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		drain(resp)
		if resp.StatusCode == http.StatusOK {
			return s, nil
		}
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill() // lint:allow errdrop — best effort on an already failing path
	<-s.exit
	os.RemoveAll(s.dir) // lint:allow errdrop — best effort on an already failing path
}

// stop sends SIGTERM and requires a clean exit 0 within the drain grace,
// then removes the data dir and requires that it is gone.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case err := <-s.exit:
		if err != nil {
			os.RemoveAll(s.dir) // lint:allow errdrop — the exit status is the failure reported
			return fmt.Errorf("ocdserve exit: %w", err)
		}
	case <-time.After(40 * time.Second):
		s.kill()
		return fmt.Errorf("ocdserve still running 40s after SIGTERM")
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	if _, err := os.Stat(s.dir); !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("data dir %s still present", s.dir)
	}
	return nil
}

// totalAllocMB reads the server's cumulative heap allocation from expvar.
func (s *server) totalAllocMB() (float64, error) {
	resp, err := http.Get(s.debug + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return float64(vars.Memstats.TotalAlloc) / (1 << 20), nil
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) // lint:allow errdrop — draining for connection reuse only
	resp.Body.Close()
}

// buildServer compiles cmd/ocdserve from the checkout.
func buildServer(cfg config) (string, error) {
	bin := filepath.Join(cfg.build, "ocdserve")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/ocdserve")
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building ocdserve: %w", err)
	}
	return bin, nil
}

// jobSample is the client's record of one checked job.
type jobSample struct {
	table               int
	total               time.Duration // submit sent → result fetched and checked
	checkpoints, evicts int64         // from the result document
}

// client is one closed-loop caller.
type client struct {
	srv    *server
	ds     []dataset
	refs   map[string]reference
	t      *tally
	http   *http.Client
	rng    *rand.Rand
	jobs   []jobSample
	rounds []time.Duration // a round submits every table once, in seed order
	nJobs  int
}

func (c *client) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		start, complete := time.Now(), true
		for _, i := range c.rng.Perm(len(c.ds)) {
			if !time.Now().Before(deadline) {
				complete = false
				break
			}
			if !c.job(i) {
				complete = false
			}
			c.nJobs++
			if c.nJobs%scrapeEvery == 0 {
				c.scrape()
			}
		}
		if complete {
			c.rounds = append(c.rounds, time.Since(start))
		}
	}
}

func (c *client) scrape() {
	resp, err := c.http.Get(c.srv.base + "/metrics?format=prometheus")
	if err != nil {
		c.t.fail("scrape: %v", err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		c.t.fail("scrape: %v", err)
	case resp.StatusCode != http.StatusOK:
		c.t.fail("scrape: status %d", resp.StatusCode)
	case !bytes.Contains(body, []byte("# TYPE jobs_completed counter")):
		c.t.fail("scrape: no jobs_completed counter in the exposition")
	default:
		c.t.ok()
	}
}

// job submits one table, follows its event stream to done, fetches and
// checks the result, and deletes the job. It reports whether every step
// succeeded; a failed job is counted in the tally.
func (c *client) job(i int) bool {
	d := c.ds[i]
	s := jobSample{table: i}
	t0 := time.Now()
	fail := func(format string, args ...any) bool {
		c.t.fail("%s: "+format, append([]any{d.name}, args...)...)
		return false
	}

	resp, err := c.http.Post(c.srv.base+"/jobs?name="+d.name, "text/csv", bytes.NewReader(d.csv))
	if err != nil {
		return fail("submit: %v", err)
	}
	var status struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	drain(resp)
	if resp.StatusCode != http.StatusAccepted || err != nil || status.ID == "" {
		return fail("submit: status %d, %v", resp.StatusCode, err)
	}
	jobURL := c.srv.base + "/jobs/" + status.ID

	done, err := c.follow(jobURL + "/events")
	if err != nil {
		return fail("events: %v", err)
	}
	if done.State != "completed" {
		return fail("job ended %q", done.State)
	}

	resp, err = c.http.Get(jobURL + "/result")
	if err != nil {
		return fail("result: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fail("result: status %d, %v", resp.StatusCode, err)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != done.ResultSHA256 {
		return fail("result hash differs from the done event's")
	}
	var doc struct {
		outcome
		Checkpoints    int64 `json:"checkpoints"`
		SpillEvictions int64 `json:"spill_evictions"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fail("decoding result: %v", err)
	}
	if err := verify(c.refs, d.name, doc.outcome); err != nil {
		return fail("%v", err)
	}
	s.total = time.Since(t0)
	s.checkpoints, s.evicts = doc.Checkpoints, doc.SpillEvictions

	if err := c.delete(jobURL); err != nil {
		return fail("delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(c.srv.dir, status.ID)); !errors.Is(err, fs.ErrNotExist) {
		return fail("job dir left after delete")
	}
	c.t.ok()
	c.jobs = append(c.jobs, s)
	return true
}

// delete removes a finished job. A 202 means the job was still settling
// its final state; the delete is repeated until it lands.
func (c *client) delete(jobURL string) error {
	for attempt := 0; attempt < 100; attempt++ {
		req, err := http.NewRequest(http.MethodDelete, jobURL, nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		drain(resp)
		switch resp.StatusCode {
		case http.StatusNoContent:
			return nil
		case http.StatusAccepted:
			time.Sleep(time.Millisecond)
		default:
			return fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	return fmt.Errorf("job still settling after 100 deletes")
}

type doneEvent struct {
	State        string `json:"state"`
	ResultSHA256 string `json:"result_sha256"`
}

// follow reads a job's SSE stream until its done event and returns it.
func (c *client) follow(url string) (doneEvent, error) {
	var done doneEvent
	resp, err := c.http.Get(url)
	if err != nil {
		return done, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &done)
			return done, err
		}
	}
	if err := sc.Err(); err != nil {
		return done, err
	}
	return done, fmt.Errorf("stream ended before done")
}

// runServe is the serve workload: serveClients closed-loop clients drive an
// ocdserve built from the checkout, each submitting the small tables in a
// seeded order, until -seconds have passed. It has no traced run.
func runServe(cfg config, t *tally) (metricSet, error) {
	if cfg.trace {
		return nil, fmt.Errorf("serve has no traced run")
	}
	refs, err := references()
	if err != nil {
		return nil, err
	}
	var (
		ds  []dataset
		srv *server
		n   int
	)
	// One set-up builds ocdserve, generates the tables and starts a server
	// on a fresh data dir; a repeat first stops the previous server.
	setup, err := repeatSetup(func() (err error) {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				t.fail("set-up server shutdown: %v", err)
			} else {
				t.ok()
			}
		}
		bin, err := buildServer(cfg)
		if err != nil {
			return err
		}
		if ds, err = makeDatasets(cfg.root, "serve", cfg.seed); err != nil {
			return err
		}
		n++
		srv, err = startServer(bin, cfg.build, n)
		return err
	})
	defer func() {
		if srv != nil {
			srv.kill() // an error cut the run short
		}
	}()
	if err != nil {
		return nil, err
	}

	newClient := func(seed int64) *client {
		return &client{
			srv: srv, ds: ds, refs: refs, t: t,
			http: &http.Client{Timeout: 60 * time.Second},
			rng:  rand.New(rand.NewSource(seed)),
		}
	}
	// Warm-up, not measured: one job per table.
	warm := newClient(0)
	for i := range ds {
		warm.job(i)
	}
	clients := make([]*client, serveClients)
	for i := range clients {
		clients[i] = newClient(cfg.seed*serveClients + int64(i))
	}

	alloc0, err := srv.totalAllocMB()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	alloc1, err := srv.totalAllocMB()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		t.fail("server shutdown: %v", err)
	} else {
		t.ok()
	}

	var jobs []jobSample
	var rounds []float64
	for _, c := range clients {
		jobs = append(jobs, c.jobs...)
		for _, r := range c.rounds {
			rounds = append(rounds, r.Seconds())
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	var total []float64
	var evicts, ckpts int64
	for _, j := range jobs {
		total = append(total, ms(j.total))
		evicts += j.evicts
		ckpts += j.checkpoints
	}
	perRound := float64(len(ds)) / float64(len(jobs)) // jobs per round ÷ jobs run
	m := metricSet{}
	m.set("batch_s", "s", median(rounds))
	m.set("alloc_mb", "MB", (alloc1-alloc0)*perRound)
	m.set("peak_rss_mb", "MB", rss)
	m.set("job_ms.p50", "ms", median(total))
	m.set("job_ms.p90", "ms", quantile(total, 0.9))
	m.set("jobs_per_s", "1/s", float64(len(jobs))/elapsed.Seconds())
	m.set("setup_s", "s", setup)
	fmt.Fprintf(os.Stderr, "serve: %d jobs, %d rounds in %.1fs; per job %.1f spill evictions, %.1f checkpoints; median job ms:",
		len(jobs), len(rounds), elapsed.Seconds(), float64(evicts)/float64(len(jobs)), float64(ckpts)/float64(len(jobs)))
	for i, d := range ds {
		var xs []float64
		for _, j := range jobs {
			if j.table == i {
				xs = append(xs, ms(j.total))
			}
		}
		fmt.Fprintf(os.Stderr, " %s %.1f", d.name, median(xs))
	}
	fmt.Fprintln(os.Stderr)
	return m, nil
}
