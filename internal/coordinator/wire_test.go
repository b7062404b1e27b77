package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"chaffmec/internal/engine"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// flakyTripper fails the first `fails` round trips with err, then
// delegates to the real transport — the connection-refused worker that
// comes back.
type flakyTripper struct {
	fails int32
	err   error
	next  http.RoundTripper
	calls int32
}

func (f *flakyTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	atomic.AddInt32(&f.calls, 1)
	if atomic.AddInt32(&f.fails, -1) >= 0 {
		return nil, f.err
	}
	return f.next.RoundTrip(req)
}

func TestHTTPRetriesTransientErrors(t *testing.T) {
	defer func(d time.Duration) { httpBackoff = d }(httpBackoff)
	httpBackoff = 0

	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	job := scenario.Job{Spec: testSpec(), Shard: scenario.Job{}.Shard}
	blob, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly httpRetries dial failures: the dispatch still succeeds, and
	// every attempt's job bytes are booked.
	tripper := &flakyTripper{fails: httpRetries, err: syscall.ECONNREFUSED, next: http.DefaultTransport}
	tr := &HTTP{URL: srv.URL, Client: &http.Client{Transport: tripper}}
	rep, err := tr.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("run after transient failures: %v", err)
	}
	if rep == nil || rep.RunCount == 0 {
		t.Fatal("no report after retried dispatch")
	}
	if got := atomic.LoadInt32(&tripper.calls); got != httpRetries+1 {
		t.Fatalf("round trips = %d, want %d", got, httpRetries+1)
	}
	if want := int64(httpRetries+1) * int64(len(blob)); tr.LastWire().Sent != want {
		t.Fatalf("wire sent = %d, want %d (every attempt booked)", tr.LastWire().Sent, want)
	}

	// One failure past the retry budget: the error surfaces.
	tripper = &flakyTripper{fails: httpRetries + 1, err: syscall.ECONNRESET, next: http.DefaultTransport}
	tr = &HTTP{URL: srv.URL, Client: &http.Client{Transport: tripper}}
	if _, err := tr.Run(context.Background(), job); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want ECONNRESET after retries exhausted", err)
	}
	if got := atomic.LoadInt32(&tripper.calls); got != httpRetries+1 {
		t.Fatalf("round trips = %d, want %d", got, httpRetries+1)
	}

	// Non-transient errors are NOT retried: one attempt, straight out.
	boom := errors.New("tls: handshake failure")
	tripper = &flakyTripper{fails: 99, err: boom, next: http.DefaultTransport}
	tr = &HTTP{URL: srv.URL, Client: &http.Client{Transport: tripper}}
	if _, err := tr.Run(context.Background(), job); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the handshake failure", err)
	}
	if got := atomic.LoadInt32(&tripper.calls); got != 1 {
		t.Fatalf("round trips = %d, want 1 (no retry on non-transient errors)", got)
	}
}

// TestHTTPWireNegotiation runs the one worker wire end to end over a
// real server: the merged fleet report stays bit-identical, and result
// events carry binary+gzip with non-zero byte counts.
func TestHTTPWireNegotiation(t *testing.T) {
	sp := testSpec()
	want := single(t, sp)
	srv := httptest.NewServer(Handler(context.Background()))
	defer srv.Close()
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(&HTTP{URL: srv.URL}), Options{Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("fleet report differs from single-process report")
	}
	checkWireEvents(t, log)
}

func checkWireEvents(t *testing.T, log *eventLog) {
	t.Helper()
	log.mu.Lock()
	defer log.mu.Unlock()
	results := 0
	for _, e := range log.events {
		if e.Kind != EventResult {
			continue
		}
		results++
		if e.Wire.Encoding != report.EncodingBinaryGzip {
			t.Fatalf("result event carries encoding %q, want binary+gzip", e.Wire.Encoding)
		}
		if e.Wire.Sent <= 0 || e.Wire.Received <= 0 {
			t.Fatalf("result event wire = %+v, want non-zero bytes both ways", e.Wire)
		}
	}
	if results == 0 {
		t.Fatal("no result events observed")
	}
}

// TestHandlerAnswersOneWire: /v1/run answers binary+gzip whatever the
// request's Accept header asks for — absent or JSON alike.
func TestHandlerAnswersOneWire(t *testing.T) {
	blob, err := json.Marshal(scenario.Job{Spec: testSpec(), Shard: engine.Span(0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	for _, accept := range []string{"", mimeJSON} {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(blob))
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		Handler(context.Background()).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("Accept %q: status = %d, want 200", accept, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != mimeReports {
			t.Fatalf("Accept %q: Content-Type = %q, want %q", accept, ct, mimeReports)
		}
		if body := rec.Body.Bytes(); !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
			t.Fatalf("Accept %q: body starts % x, want a gzip frame", accept, body[:min(len(body), 2)])
		}
	}
}

// TestCoordinatorBanksShards proves the report store turns a repeated
// campaign into cache hits: the second run resolves every shard from
// the bank without dispatching, and a corrupted artifact silently falls
// back to a live dispatch.
func TestCoordinatorBanksShards(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	want := single(t, sp)
	run := func(log *eventLog) (*report.Report, error) {
		return RunFleet(context.Background(), scenario.Job{Spec: sp},
			StaticOf(InProcessFleet(2)...), Options{Store: st, Progress: log.add})
	}

	cold := &eventLog{}
	got, err := run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("cold banked run differs from single-process report")
	}
	if cold.count(EventBanked) != 0 {
		t.Fatalf("cold run hit the bank %d times", cold.count(EventBanked))
	}
	shards := cold.count(EventResult)
	if shards == 0 {
		t.Fatal("cold run resolved no shards")
	}

	// Warm: every shard comes from the bank, no dispatch at all.
	warm := &eventLog{}
	got, err = run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("banked run differs from single-process report")
	}
	if warm.count(EventBanked) != shards {
		t.Fatalf("banked shards = %d, want %d", warm.count(EventBanked), shards)
	}
	if n := warm.count(EventDispatch); n != 0 {
		t.Fatalf("warm run dispatched %d shards, want 0", n)
	}

	// Corrupt one journal record's payload on disk: that record's runs
	// (and only those) dispatch again, and the result still merges
	// bit-identical.
	corrupted := false
	err = filepath.WalkDir(filepath.Join(st.Root(), "campaign"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || corrupted {
			return err
		}
		corrupted = true
		return corruptRecord(st, path, 0)
	})
	if err != nil || !corrupted {
		t.Fatalf("corrupting an artifact: err=%v corrupted=%v", err, corrupted)
	}
	after := &eventLog{}
	got, err = run(after)
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("run after artifact corruption differs from single-process report")
	}
	if after.count(EventBanked) != shards-1 {
		t.Fatalf("banked shards = %d, want %d (one evicted)", after.count(EventBanked), shards-1)
	}
	if after.count(EventResult) != 1 {
		t.Fatalf("re-dispatched shards = %d, want exactly the corrupted one", after.count(EventResult))
	}
}
