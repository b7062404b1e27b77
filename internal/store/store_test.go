package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir() + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyFraming(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Fatal("key collides across part boundaries")
	}
	if Key("x") == Key("x", "") {
		t.Fatal("key ignores empty trailing part")
	}
	if Key("x") != Key("x") {
		t.Fatal("key not deterministic")
	}
	if len(Key()) != 64 {
		t.Fatalf("key length %d, want 64 hex digits", len(Key()))
	}
}

func TestPutGetDelete(t *testing.T) {
	s := open(t)
	key := Key("spec", "stream/1")

	if _, ok, err := s.Get("tracelab", key); err != nil || ok {
		t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
	}
	blob := []byte("artifact bytes")
	if err := s.Put("tracelab", key, blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("tracelab", key)
	if err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Get = %q ok=%v err=%v", got, ok, err)
	}
	// The same key under another kind is a distinct artifact.
	if _, ok, _ := s.Get("campaign", key); ok {
		t.Fatal("kinds share a namespace")
	}
	// Re-put replaces.
	if err := s.Put("tracelab", key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := s.Get("tracelab", key); string(got) != "v2" {
		t.Fatalf("re-put kept %q", got)
	}
	if err := s.Delete("tracelab", key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("tracelab", key); ok {
		t.Fatal("deleted key still present")
	}
	if err := s.Delete("tracelab", key); err != nil {
		t.Fatal("double delete errored")
	}
}

func TestLayoutAndValidation(t *testing.T) {
	s := open(t)
	key := Key("anything")
	if err := s.Put("tracelab", key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The documented layout — prune docs and humans depend on it.
	want := filepath.Join(s.Root(), "tracelab", key[:2], key)
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("blob not at documented path: %v", err)
	}
	// No temp droppings left beside it.
	entries, err := os.ReadDir(filepath.Dir(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in blob dir, want 1", len(entries))
	}

	for _, bad := range [][2]string{
		{"", key}, {"a/b", key}, {"..", key},
		{"tracelab", ""}, {"tracelab", "x"}, {"tracelab", "../../etc/passwd"},
	} {
		if err := s.Put(bad[0], bad[1], []byte("x")); err == nil {
			t.Fatalf("Put(%q,%q) accepted", bad[0], bad[1])
		}
		if _, _, err := s.Get(bad[0], bad[1]); err == nil {
			t.Fatalf("Get(%q,%q) accepted", bad[0], bad[1])
		}
		if err := s.Append(bad[0], bad[1], []byte("x")); err == nil {
			t.Fatalf("Append(%q,%q) accepted", bad[0], bad[1])
		}
		if _, err := s.Records(bad[0], bad[1]); err == nil {
			t.Fatalf("Records(%q,%q) accepted", bad[0], bad[1])
		}
	}
}

func TestConcurrentSameKey(t *testing.T) {
	s := open(t)
	key := Key("contended")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blob := bytes.Repeat([]byte{byte('a' + i)}, 4096)
			for j := 0; j < 20; j++ {
				if err := s.Put("tracelab", key, blob); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get("tracelab", key)
				if err != nil || !ok {
					t.Errorf("Get ok=%v err=%v", ok, err)
					return
				}
				// Atomicity: any observed blob is some writer's whole
				// blob, never a mixture.
				if len(got) != 4096 || bytes.Count(got, got[:1]) != 4096 {
					t.Errorf("torn read: %d bytes, mixed content", len(got))
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestAppendRecords(t *testing.T) {
	s := open(t)
	key := Key("journal")
	if recs, err := s.Records("campaign", key); err != nil || recs != nil {
		t.Fatalf("missing journal: records=%q err=%v, want none", recs, err)
	}
	want := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xab}, 5000)}
	for _, rec := range want {
		if err := s.Append("campaign", key, rec); err != nil {
			t.Fatal(err)
		}
	}
	checkRecords(t, s, key, want)
	// Journals and blobs share the layout.
	if _, err := os.Stat(filepath.Join(s.Root(), "campaign", key[:2], key)); err != nil {
		t.Fatalf("journal not at the documented path: %v", err)
	}
}

// TestRecordsTruncatesTornTail cuts the journal's last record inside
// its length prefix and inside its payload: either way Records returns
// the whole records before it, and an Append after the cut reads back
// whole.
func TestRecordsTruncatesTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  int // bytes of the last frame kept
	}{{"inside the length prefix", recordPrefix - 1}, {"inside the payload", recordPrefix + 3}} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t)
			key := Key("torn", tc.name)
			whole := [][]byte{[]byte("alpha"), []byte("beta")}
			for _, rec := range append(whole, []byte("gamma-is-cut")) {
				if err := s.Append("campaign", key, rec); err != nil {
					t.Fatal(err)
				}
			}
			p := filepath.Join(s.Root(), "campaign", key[:2], key)
			good := int64(2*recordPrefix + len("alpha") + len("beta"))
			if err := os.Truncate(p, good+int64(tc.cut)); err != nil {
				t.Fatal(err)
			}
			checkRecords(t, s, key, whole)
			if fi, err := os.Stat(p); err != nil || fi.Size() != good {
				t.Fatalf("journal after the cut: size=%v err=%v, want %d bytes", fi.Size(), err, good)
			}
			if err := s.Append("campaign", key, []byte("delta")); err != nil {
				t.Fatal(err)
			}
			checkRecords(t, s, key, append(whole, []byte("delta")))
		})
	}
}

func checkRecords(t *testing.T, s *Store, key string, want [][]byte) {
	t.Helper()
	got, err := s.Records("campaign", key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDefaultFromEnv(t *testing.T) {
	t.Cleanup(func() { SetDefault(nil) })

	dir := t.TempDir() + "/env-store"
	t.Setenv(EnvStore, dir)
	resetDefaultForTest()
	s := Default()
	if s == nil || s.Root() != dir {
		t.Fatalf("Default() = %v, want store at %s", s, dir)
	}
	if Default() != s {
		t.Fatal("Default() not cached")
	}

	t.Setenv(EnvStore, "")
	resetDefaultForTest()
	if Default() != nil {
		t.Fatal("Default() without env not nil")
	}

	explicit := open(t)
	SetDefault(explicit)
	if Default() != explicit {
		t.Fatal("SetDefault ignored")
	}
}

func resetDefaultForTest() {
	defaultMu.Lock()
	defaultSet = false
	defaultStor = nil
	defaultMu.Unlock()
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty root accepted")
	}
	// A root path blocked by a regular file must fail loudly.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "sub")); err == nil {
		t.Fatal("root under a file accepted")
	}
}
