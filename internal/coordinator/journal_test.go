package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"chaffmec/internal/engine"
	"chaffmec/internal/markov"
	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
	"chaffmec/internal/store"
)

// journalFile returns the path of the store's one campaign journal.
func journalFile(t *testing.T, st *store.Store) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(st.Root(), "campaign", "*", "*"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("campaign journals = %v (err %v), want exactly one", paths, err)
	}
	return paths[0]
}

// journalRecords returns the journal's bytes, its records and the byte
// offset of each record's payload in the file.
func journalRecords(st *store.Store, file string) (data []byte, recs [][]byte, offs []int, err error) {
	if recs, err = st.Records("campaign", filepath.Base(file)); err != nil {
		return nil, nil, nil, err
	}
	if data, err = os.ReadFile(file); err != nil {
		return nil, nil, nil, err
	}
	from := 0
	for _, rec := range recs {
		at := bytes.Index(data[from:], rec)
		if at < 0 {
			return nil, nil, nil, fmt.Errorf("record not found in %s", file)
		}
		offs = append(offs, from+at)
		from += at + len(rec)
	}
	return data, recs, offs, nil
}

// corruptRecord flips one byte in the middle of record i's gzip
// payload, leaving the journal's framing intact.
func corruptRecord(st *store.Store, file string, i int) error {
	data, recs, offs, err := journalRecords(st, file)
	if err != nil {
		return err
	}
	if i >= len(recs) {
		return fmt.Errorf("journal holds %d records, want record %d", len(recs), i)
	}
	data[offs[i]+len(recs[i])/2] ^= 0xff
	return os.WriteFile(file, data, 0o644)
}

// recordSpan decodes the run range a journal record covers.
func recordSpan(t *testing.T, rec []byte) engine.Shard {
	t.Helper()
	reps, err := report.DecodeReports(rec)
	if err != nil || len(reps) != 1 {
		t.Fatalf("decoding a journal record: %d reports, err %v", len(reps), err)
	}
	return engine.Span(reps[0].RunStart, reps[0].RunStart+reps[0].RunCount)
}

// checkOnlyDispatched fails unless the campaign dispatched work and
// every dispatch was exactly the lost run range.
func checkOnlyDispatched(t *testing.T, log *eventLog, lost engine.Shard) {
	t.Helper()
	log.mu.Lock()
	defer log.mu.Unlock()
	n := 0
	for _, e := range log.events {
		if e.Kind == EventDispatch {
			n++
			if e.Shard != lost {
				t.Fatalf("dispatched %s, want only the lost record's runs %s", e.Shard, lost)
			}
		}
	}
	if n == 0 {
		t.Fatalf("lost runs %s were never dispatched", lost)
	}
}

// TestJournalResumesTornAndCorruptRecords kills a campaign mid-append:
// after a finished 2-worker campaign, the journal's last record is cut
// partway through (a coordinator crash inside the write), and then one
// byte of a middle record's gzip payload flips. Each time Resume(nil)
// recomputes exactly the lost record's runs and finishes bit-identical
// to the single-process run.
func TestJournalResumesTornAndCorruptRecords(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	want := single(t, sp)
	fleet := StaticOf(InProcessFleet(2)...)
	if _, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, Options{Store: st}); err != nil {
		t.Fatal(err)
	}
	file := journalFile(t, st)

	resume := func(lost engine.Shard, kept int) {
		t.Helper()
		log := &eventLog{}
		got, err := Resume(context.Background(), scenario.Job{Spec: sp}, nil, fleet,
			Options{Store: st, Progress: log.add})
		if err != nil {
			t.Fatal(err)
		}
		if norm(t, got) != norm(t, want) {
			t.Fatal("resumed campaign differs from the single-process report")
		}
		if n := log.count(EventBanked); n != kept {
			t.Fatalf("banked records = %d, want %d", n, kept)
		}
		if n := log.count(EventResult); n != 1 {
			t.Fatalf("results = %d, want exactly the lost record's", n)
		}
		checkOnlyDispatched(t, log, lost)
	}

	// (a) The last record's write was torn.
	data, recs, _, err := journalRecords(st, file)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("journal holds %d records, want a middle one to corrupt", len(recs))
	}
	last := recs[len(recs)-1]
	if err := os.Truncate(file, int64(len(data)-len(last)/2)); err != nil {
		t.Fatal(err)
	}
	resume(recordSpan(t, last), len(recs)-1)

	// (b) A middle record's payload flipped a byte.
	_, recs, _, err = journalRecords(st, file)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(recs) / 2
	lost := recordSpan(t, recs[mid])
	if err := corruptRecord(st, file, mid); err != nil {
		t.Fatal(err)
	}
	resume(lost, len(recs)-1)
}

// TestConcurrentCoordinatorsShareJournal starts two coordinators on one
// spec and one store at once. Their appends interleave whole records
// and replay drops the duplicates, so both finish bit-identical and a
// third run finds every run journaled.
func TestConcurrentCoordinatorsShareJournal(t *testing.T) {
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

	var wg sync.WaitGroup
	start := make(chan struct{})
	var reps [2]*report.Report
	var errs [2]error
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			reps[i], errs[i] = run(&eventLog{})
		}()
	}
	close(start)
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatalf("coordinator %d: %v", i, errs[i])
		}
		if norm(t, reps[i]) != norm(t, want) {
			t.Fatalf("coordinator %d differs from the single-process report", i)
		}
	}

	third := &eventLog{}
	got, err := run(third)
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("third run differs from the single-process report")
	}
	if n := third.count(EventDispatch); n != 0 {
		t.Fatalf("third run dispatched %d shards, want 0", n)
	}
}

// TestJournalKeyCoversInjectedChain runs two in-process campaigns on
// one store whose specs differ only in the injected Chain, which the
// spec's JSON, and so the journal key, leaves out. The second campaign
// must never return the first one's journaled report: either it runs
// its own runs or it refuses to journal a key that cannot tell the two
// apart.
func TestJournalKeyCoversInjectedChain(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := scenario.Spec{Name: "injected", Kind: "single", Strategy: "IM", NumChaffs: 1,
		Horizon: 10, Runs: 40, Seed: 3}
	for i, rows := range [][][]float64{
		{{0.8, 0.1, 0.1}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}},
		{{0.2, 0.4, 0.4}, {0.4, 0.2, 0.4}, {0.4, 0.4, 0.2}},
	} {
		chain, err := markov.New(rows)
		if err != nil {
			t.Fatal(err)
		}
		sp.Chain = chain
		want := single(t, sp)
		got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
			StaticOf(InProcessFleet(2)...), Options{Store: st})
		if err != nil {
			continue // refused: nothing journaled under a key that misses the chain
		}
		if norm(t, got) != norm(t, want) {
			t.Fatalf("campaign %d returned another chain's journaled report instead of its own", i)
		}
	}

	// An injected Γ decides which trajectories the detector removes and
	// is no more in the key: with a store, such a spec is refused.
	adv := testSpec()
	adv.Advanced = true
	adv.Gamma = func(u markov.Trajectory, _ int) (markov.Trajectory, error) { return u, nil }
	if _, err := RunFleet(context.Background(), scenario.Job{Spec: adv},
		StaticOf(InProcessFleet(1)...), Options{Store: st}); err == nil {
		t.Fatal("a spec with an injected Gamma was journaled under a key that leaves it out")
	}
}

// bodyTap is an http.RoundTripper that keeps a copy of every response
// body the client reads.
type bodyTap struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (b *bodyTap) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.bodies = append(b.bodies, data)
	b.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

// unframed serves h's report responses as the plain binary envelope
// instead of the gzip frame: the same report in other valid bytes,
// which an encoder on the coordinator's side would not reproduce.
func unframed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		reps, err := report.DecodeReports(rec.Body.Bytes())
		if err != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes()) //nolint:errcheck // test server
			return
		}
		w.WriteHeader(rec.Code)
		report.WriteReportsBinary(w, reps, false) //nolint:errcheck // test server
	})
}

// TestJournalRecordsAreWorkerBytes runs a campaign over two HTTP
// Handler workers with a store, one of them answering in the unframed
// binary envelope: every journal record is, byte for byte, a response
// body the client read, and the journal still replays into the
// single-process report.
func TestJournalRecordsAreWorkerBytes(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	tap := &bodyTap{}
	client := &http.Client{Transport: tap}
	var fleet []Transport
	for _, h := range []http.Handler{Handler(context.Background()), unframed(Handler(context.Background()))} {
		srv := httptest.NewServer(h)
		defer srv.Close()
		fleet = append(fleet, &HTTP{URL: srv.URL, Client: client})
	}
	sp := testSpec()
	want := single(t, sp)
	log := &eventLog{}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(fleet...),
		Options{Store: st, Progress: log.add})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) {
		t.Fatal("HTTP campaign differs from the single-process report")
	}
	_, recs, _, err := journalRecords(st, journalFile(t, st))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != log.count(EventResult) {
		t.Fatalf("journal holds %d records for %d results", len(recs), log.count(EventResult))
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for i, rec := range recs {
		found := false
		for _, body := range tap.bodies {
			found = found || bytes.Equal(rec, body)
		}
		if !found {
			t.Fatalf("journal record %d (%d bytes) is no response body the client read", i, len(rec))
		}
	}

	warm := &eventLog{}
	if got, err = RunFleet(context.Background(), scenario.Job{Spec: sp}, StaticOf(fleet...),
		Options{Store: st, Progress: warm.add}); err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, want) || warm.count(EventDispatch) != 0 {
		t.Fatalf("replaying the worker bytes: %d dispatches, report equal %v",
			warm.count(EventDispatch), norm(t, got) == norm(t, want))
	}
}

// TestJournalDurableAtRound: inside Progress, when a round's EventRound
// fires, the store already holds a record for every EventResult so far
// — the appends run off the dispatch loop, but never past the round.
func TestJournalDurableAtRound(t *testing.T) {
	st, err := store.Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	sp := adaptiveSpec()
	key := ""
	results, rounds := 0, 0
	progress := func(e Event) {
		switch e.Kind {
		case EventResult:
			results++
		case EventRound:
			rounds++
			if key == "" {
				paths, _ := filepath.Glob(filepath.Join(st.Root(), "campaign", "*", "*"))
				if len(paths) != 1 {
					t.Errorf("round %d: %d campaign journals, want 1", rounds, len(paths))
					return
				}
				key = filepath.Base(paths[0])
			}
			recs, err := st.Records("campaign", key)
			if err != nil || len(recs) != results {
				t.Errorf("round %d: journal holds %d records (err %v) for %d results", rounds, len(recs), err, results)
			}
		}
	}
	got, err := RunFleet(context.Background(), scenario.Job{Spec: sp},
		StaticOf(InProcessFleet(2)...), Options{Store: st, Progress: progress})
	if err != nil {
		t.Fatal(err)
	}
	if norm(t, got) != norm(t, single(t, sp)) {
		t.Fatal("journaled adaptive campaign differs from the single-process report")
	}
	if rounds < 2 || results == 0 {
		t.Fatalf("%d rounds, %d results: want an adaptive campaign of several rounds", rounds, results)
	}
}

// TestJournalKeyedByWhatBitsDependOn re-runs a campaign on the same
// store with a changed Runs (40 → 80), Workers or a tighter precision
// target. None of them changes a run's bits, so the re-run must find
// the first campaign's journal and bank its first round, and still
// finish byte for byte as a fresh-store run of the new spec.
func TestJournalKeyedByWhatBitsDependOn(t *testing.T) {
	forty := testSpec()
	forty.Runs = 40
	eighty := forty
	eighty.Runs = 80
	oneWorker := testSpec()
	oneWorker.Workers = 1
	twoWorkers := oneWorker
	twoWorkers.Workers = 2
	loose := adaptiveSpec()
	tight := loose
	tight.Precision = &scenario.Precision{TargetSE: 0.02, MinRuns: 24, MaxRuns: 200}
	for _, tc := range []struct {
		name        string
		first, then scenario.Spec
	}{
		{"runs", forty, eighty},
		{"workers", oneWorker, twoWorkers},
		{"target_se", loose, tight},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(t.TempDir() + "/artifacts")
			if err != nil {
				t.Fatal(err)
			}
			fleet := StaticOf(InProcessFleet(2)...)
			if _, err := RunFleet(context.Background(), scenario.Job{Spec: tc.first}, fleet, Options{Store: st}); err != nil {
				t.Fatal(err)
			}
			// The first round's events end at its EventRound.
			var firstRound []Event
			rounds := 0
			got, err := RunFleet(context.Background(), scenario.Job{Spec: tc.then}, fleet, Options{Store: st, Progress: func(e Event) {
				if e.Kind == EventRound {
					rounds++
				}
				if rounds == 0 {
					firstRound = append(firstRound, e)
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			banked := 0
			for _, e := range firstRound {
				if e.Kind == EventBanked {
					banked++
				}
			}
			if banked == 0 {
				t.Fatal("the re-run banked nothing in its first round")
			}
			fresh, err := store.Open(t.TempDir() + "/fresh")
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunFleet(context.Background(), scenario.Job{Spec: tc.then}, fleet, Options{Store: fresh})
			if err != nil {
				t.Fatal(err)
			}
			if norm(t, got) != norm(t, want) || norm(t, got) != norm(t, single(t, tc.then)) {
				t.Fatal("the re-run differs from a fresh-store run of its spec")
			}
		})
	}
}

// TestJournalKeyedByArch copies a finished campaign's journal into two
// fresh stores: once under the key this host computes, once under the
// key a host of another GOARCH computes for the same spec. Only the
// first may be read; the second campaign runs every run itself.
func TestJournalKeyedByArch(t *testing.T) {
	src, err := store.Open(t.TempDir() + "/src")
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec()
	fleet := StaticOf(InProcessFleet(2)...)
	if _, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, Options{Store: src}); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := journalRecords(src, journalFile(t, src))
	if err != nil {
		t.Fatal(err)
	}
	foreign := "arm64"
	if runtime.GOARCH == foreign {
		foreign = "amd64"
	}
	for _, arch := range []string{runtime.GOARCH, foreign} {
		st, err := store.Open(t.TempDir() + "/" + arch)
		if err != nil {
			t.Fatal(err)
		}
		key, err := campaignKey(sp, arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := st.Append("campaign", key, rec); err != nil {
				t.Fatal(err)
			}
		}
		log := &eventLog{}
		got, err := RunFleet(context.Background(), scenario.Job{Spec: sp}, fleet, Options{Store: st, Progress: log.add})
		if err != nil {
			t.Fatal(err)
		}
		if norm(t, got) != norm(t, single(t, sp)) {
			t.Fatalf("%s journal: report differs from the single-process run", arch)
		}
		banked, dispatched := log.count(EventBanked), log.count(EventDispatch)
		if arch == runtime.GOARCH && (banked != len(recs) || dispatched != 0) {
			t.Fatalf("own-arch journal: %d banked, %d dispatched, want %d and 0", banked, dispatched, len(recs))
		}
		if arch == foreign && (banked != 0 || dispatched == 0) {
			t.Fatalf("%s journal read on %s: %d records banked", foreign, runtime.GOARCH, banked)
		}
	}
}
