package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/scenario"
)

// TestMain doubles this test binary as a worker process: with
// CHAFFMEC_TEST_WORKER=1 it runs the exact RunWorker/exit-code protocol
// cmd/experiments -worker speaks, so the Subprocess transport is tested
// hermetically against a real child process.
func TestMain(m *testing.M) {
	if os.Getenv("CHAFFMEC_TEST_WORKER") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := RunWorker(ctx, os.Stdin, os.Stdout)
		stop()
		code := 0
		switch {
		case errors.Is(err, ErrBadJob):
			code = ExitBadJob
		case errors.Is(err, ErrPartial):
			code = ExitPartial
		case err != nil:
			code = 1
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// testWorkerFleet builds n subprocess workers re-exec'ing this binary,
// optionally with extra per-worker env on worker 0.
func testWorkerFleet(n int, worker0Env ...string) []Transport {
	out := make([]Transport, 0, n)
	for i := 0; i < n; i++ {
		t := &Subprocess{
			Label: fmt.Sprintf("sub-%d", i),
			Argv:  []string{os.Args[0]},
			Env:   []string{"CHAFFMEC_TEST_WORKER=1"},
		}
		if i == 0 {
			t.Env = append(t.Env, worker0Env...)
		}
		out = append(out, t)
	}
	return out
}

func TestSubprocessFanOutBitIdentical(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(testWorkerFleet(3)...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("subprocess fan-out differs from single-process report")
	}
}

func TestSubprocessCrashInjection(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	for _, mode := range []string{"exit", "partial"} {
		log := &eventLog{}
		got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
			StaticOf(testWorkerFleet(3, EnvCrash+"="+mode)...), Options{Progress: log.add})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if norm(t, got) != norm(t, want) {
			t.Fatalf("mode %s: merge after injected crash differs from single-process report", mode)
		}
		if mode == "exit" && log.count(EventFailure)+log.count(EventWorkerDead) == 0 {
			t.Fatal("mode exit: crash left no failure events")
		}
		if mode == "partial" && log.count(EventPartial) == 0 {
			t.Fatal("mode partial: no partial banked")
		}
	}
}

func TestSubprocessBadJobExitCode(t *testing.T) {
	// A worker process handed garbage must exit with the named code, so
	// operators (and the coordinator's logs) can tell "your job is
	// malformed" from "the worker crashed".
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CHAFFMEC_TEST_WORKER=1")
	cmd.Stdin = strings.NewReader("{nope")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var xe *exec.ExitError
	if !errors.As(err, &xe) || xe.ExitCode() != ExitBadJob {
		t.Fatalf("exit = %v, want code %d", err, ExitBadJob)
	}
	if !strings.Contains(stderr.String(), "malformed worker job") {
		t.Fatalf("stderr %q does not carry the named error", stderr.String())
	}
}

func TestRunWorkerNamedErrors(t *testing.T) {
	for name, stdin := range map[string]string{
		"garbage":       "{nope",
		"missing kind":  `{"spec":{}}`,
		"unknown kind":  `{"spec":{"kind":"no-such-kind"}}`,
		"invalid shard": `{"spec":{"kind":"single"},"shard":{"index":5,"count":2}}`,
		"bad precision": `{"spec":{"kind":"single","precision":{"target_se":0.1,"series":"a","scalar":"b"}}}`,
	} {
		var out bytes.Buffer
		err := RunWorker(context.Background(), strings.NewReader(stdin), &out)
		if !errors.Is(err, ErrBadJob) {
			t.Fatalf("%s: err = %v, want ErrBadJob", name, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%s: malformed job wrote output %q", name, out.String())
		}
	}
}

func TestRunWorkerMatchesDirectRun(t *testing.T) {
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(5, 45)}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunWorker(context.Background(), bytes.NewReader(blob), &out); err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeReportStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	// The worker executes the shard in chunks; position-aware reducers
	// make the chunked result bit-identical to the one-shot shard.
	if norm(t, got) != norm(t, want) {
		t.Fatal("worker chunked shard differs from direct shard run")
	}
}

func TestRunWorkerTerminationWritesResumablePartial(t *testing.T) {
	t.Setenv(EnvCrash, "partial")
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 60)}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = RunWorker(context.Background(), bytes.NewReader(blob), &out)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	partial, _, err := decodeReportStream(&out)
	if err != nil {
		t.Fatal(err)
	}
	if partial.RunStart != 0 || partial.RunCount <= 0 || partial.RunCount >= 60 {
		t.Fatalf("partial covers [%d,%d), want a proper prefix of [0,60)",
			partial.RunStart, partial.RunStart+partial.RunCount)
	}
	// Resumable: executing exactly the remainder and extending yields
	// the bit-identical whole-shard report.
	t.Setenv(EnvCrash, "")
	rest, err := scenario.RunJob(context.Background(),
		scenario.Job{Spec: job.Spec, Shard: engine.Span(partial.RunCount, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Extend(rest); err != nil {
		t.Fatal(err)
	}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, partial) != norm(t, want) {
		t.Fatal("resumed partial differs from uninterrupted shard")
	}
}

func TestHTTPFanOutBitIdentical(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	srv2 := httptest.NewServer(Handler(context.Background()))
	defer srv2.Close()
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(HTTPFleet(srv.URL, srv2.URL)...), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("HTTP fan-out differs from single-process report")
	}
}

func TestHTTPWorkerDownThenFleetSurvives(t *testing.T) {
	// The transient-error retry would have the dead worker spend most of
	// this test in backoff; zero it (the retry itself is covered by
	// TestHTTPRetriesTransientErrors).
	defer func(d time.Duration) { httpBackoff = d }(httpBackoff)
	httpBackoff = 0

	sp := testSpec()
	want := single(t, sp)
	// The live worker holds its dispatches until the coordinator has
	// declared the dead one dead: otherwise it may drain every queued
	// shard first, or speculatively resolve the dead worker's shard so
	// that its failure arrives too late to count.
	gone := make(chan struct{})
	live := Handler(context.Background())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-gone:
		case <-r.Context().Done():
			return
		case <-time.After(10 * time.Second):
			http.Error(w, "the dead worker was never declared dead", http.StatusServiceUnavailable)
			return
		}
		live.ServeHTTP(w, r)
	}))
	defer srv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first dispatch
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(HTTPFleet(srv.URL, dead.URL)...), Options{Progress: func(e Event) {
			log.add(e)
			if e.Kind == EventWorkerDead && e.Worker == dead.URL {
				close(gone)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge with a dead HTTP worker differs from single-process report")
	}
	if log.count(EventWorkerDead) != 1 {
		t.Fatalf("worker-dead events = %d, want 1", log.count(EventWorkerDead))
	}
}

// TestHTTPHandlerRejectsBadJob: a malformed job is a named 400, the
// health probe still answers, and the unversioned paths are gone.
func TestHTTPHandlerRejectsBadJob(t *testing.T) {
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/run", mimeJSON, strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	health, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/v1/healthz = %d", health.StatusCode)
	}
	blob, err := json.Marshal(scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ method, path string }{
		{http.MethodPost, "/run"}, {http.MethodGet, "/healthz"},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

// TestHTTPHandlerRefusesOversizedJob: a job body past maxRequestBody is
// refused with 413 before any shard runs — even one that is otherwise
// a valid, runnable Job.
func TestHTTPHandlerRefusesOversizedJob(t *testing.T) {
	sp := testSpec()
	sp.Name = strings.Repeat("x", maxRequestBody)
	blob, err := json.Marshal(scenario.Job{Spec: sp, Shard: engine.Span(0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	Handler(context.Background()).ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(blob)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if _, _, err := decodeReportStream(rec.Body); err == nil {
		t.Fatal("oversized job answered with a report: a shard ran")
	}
}
