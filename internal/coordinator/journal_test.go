package coordinator

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"chaffmec/internal/engine"
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
