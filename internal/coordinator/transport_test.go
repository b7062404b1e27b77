package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/scenario"
)

// postJob sends one raw /v1/run request body to a worker Handler.
func postJob(t *testing.T, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(context.Background()).ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return rec
}

func TestHandlerMatchesDirectRun(t *testing.T) {
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(5, 45)}
	want, err := scenario.RunJob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	rec := postJob(t, blob)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body)
	}
	got, _, err := decodeReportStream(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The worker executes the shard in chunks; position-aware reducers
	// make the chunked result bit-identical to the one-shot shard.
	if norm(t, got) != norm(t, want) {
		t.Fatal("worker chunked shard differs from direct shard run")
	}
}

// TestHandlerTerminationAnswersResumablePartial: a worker terminated
// mid-shard answers 206 with a proper prefix of the shard, and that
// prefix extends to the bit-identical whole shard.
func TestHandlerTerminationAnswersResumablePartial(t *testing.T) {
	t.Setenv(EnvCrash, "partial")
	job := scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 60)}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	rec := postJob(t, blob)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status = %d, want 206", rec.Code)
	}
	partial, _, err := decodeReportStream(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if partial.RunStart != 0 || partial.RunCount <= 0 || partial.RunCount >= 60 {
		t.Fatalf("partial covers [%d,%d), want a proper prefix of [0,60)",
			partial.RunStart, partial.RunStart+partial.RunCount)
	}
	// Resumable: executing exactly the remainder and extending yields
	// the bit-identical whole-shard report.
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

// TestHTTPPartialCheckpointsMerge: with every worker terminated after
// the first chunk of each dispatch, every dispatch of a shard longer
// than minChunk returns a prefix, so the fleet banks partials on any
// schedule and still merges bit-identical to the single-process run.
func TestHTTPPartialCheckpointsMerge(t *testing.T) {
	t.Setenv(EnvCrash, "partial")
	sp := testSpec()
	want := single(t, sp)
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	srv2 := httptest.NewServer(Handler(context.Background()))
	defer srv2.Close()
	log := &eventLog{}
	// A partial counts against its worker; both workers hand back
	// prefixes on every long shard, so neither may leave the fleet.
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(HTTPFleet(srv.URL, srv2.URL)...),
		Options{Progress: log.add, WorkerFailLimit: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("merge of checkpointed prefixes differs from single-process report")
	}
	if log.count(EventPartial) == 0 {
		t.Fatal("no partial banked")
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

// TestHTTPHandlerRejectsBadJob: a job that never was runnable is a
// 400 naming ErrBadJob with no report body, the health probe still
// answers, and the unversioned paths are gone.
func TestHTTPHandlerRejectsBadJob(t *testing.T) {
	t.Run("NamedErrors", func(t *testing.T) {
		for name, body := range map[string]string{
			"garbage":          "{nope",
			"missing kind":     `{"spec":{}}`,
			"unknown kind":     `{"spec":{"kind":"no-such-kind"}}`,
			"unknown strategy": `{"spec":{"kind":"single","strategy":"NOPE"}}`,
			"invalid shard":    `{"spec":{"kind":"single"},"shard":{"index":5,"count":2}}`,
			"bad precision":    `{"spec":{"kind":"single","precision":{"target_se":0.1,"series":"a","scalar":"b"}}}`,
		} {
			rec := postJob(t, []byte(body))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400", name, rec.Code)
			}
			if !strings.Contains(rec.Body.String(), ErrBadJob.Error()) {
				t.Fatalf("%s: body %q does not name ErrBadJob", name, rec.Body)
			}
			if _, _, err := decodeReportStream(rec.Body); err == nil {
				t.Fatalf("%s: malformed job answered with a report", name)
			}
		}
	})
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
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
	rec := postJob(t, blob)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if _, _, err := decodeReportStream(rec.Body); err == nil {
		t.Fatal("oversized job answered with a report: a shard ran")
	}
}

// TestBadJobFailsCampaignAtOnce: a spec naming a strategy no worker
// knows, or one its kind refuses (scenario.ErrBadSpec), fails the
// campaign on its first refusal, in process and over HTTP (a 400), with
// an error wrapping ErrBadJob. The refusal is booked as neither a shard
// failure nor a worker failure, so nothing retries.
func TestBadJobFailsCampaignAtOnce(t *testing.T) {
	srvs := []*httptest.Server{httptest.NewServer(Handler(context.Background())), httptest.NewServer(Handler(context.Background()))}
	for _, srv := range srvs {
		defer srv.Close()
	}
	fleets := map[string]Fleet{
		"in-process": StaticOf(InProcessFleet(2)...),
		"http":       StaticOf(HTTPFleet(srvs[0].URL, srvs[1].URL)...),
	}
	specs := map[string]struct {
		spec scenario.Spec
		want string
	}{
		"strategy":           {scenario.Spec{Kind: "single", Strategy: "NOPE", Horizon: 10, Runs: 60, Seed: 7}, "unknown strategy"},
		"strategies":         {scenario.Spec{Kind: "mixed", Strategies: []string{"MO", "NOPE"}, Horizon: 10, Runs: 60, Seed: 7}, "unknown strategy"},
		"population":         {scenario.Spec{Kind: "hetero", Population: []scenario.Member{{Strategy: "nope"}}, Horizon: 10, Runs: 60, Seed: 7}, "unknown strategy"},
		"offline controller": {scenario.Spec{Kind: "mecbatch", Strategy: "OO", Horizon: 10, Runs: 60, Seed: 7}, "offline-only"},
		"no strategy":        {scenario.Spec{Kind: "single", Horizon: 10, Runs: 60, Seed: 7}, "needs a strategy"},
		"nothing to recognize": {scenario.Spec{Kind: "multiuser", Advanced: true, Horizon: 10, Runs: 60, Seed: 7},
			"needs a strategy to recognize"},
		"mixed advanced": {scenario.Spec{Kind: "mixed", Strategies: []string{"MO", "OO"}, Advanced: true, Horizon: 10, Runs: 60, Seed: 7},
			"basic eavesdropper only"},
	}
	for fname, fleet := range fleets {
		for sname, c := range specs {
			var log eventLog
			_, err := RunFleet(context.Background(), scenario.Job{Spec: c.spec}, fleet, Options{Progress: log.add})
			if !errors.Is(err, ErrBadJob) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s fleet, %s: err = %v, want ErrBadJob saying %q", fname, sname, err, c.want)
			}
			if n := log.count(EventFailure) + log.count(EventWorkerDead); n != 0 {
				t.Fatalf("%s fleet, %s: %d failure events, want 0", fname, sname, n)
			}
		}
	}
}
