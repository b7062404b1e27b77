package coordinator

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"chaffmec/internal/rng"
)

// registryPost sends one request to the registry handler in process and
// returns the status and body.
func registryPost(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// FuzzRegistryHandler feeds arbitrary bodies to the registry's
// register and heartbeat endpoints. No input may panic the handler, the
// answer is always one of the statuses the API documents, and an
// accepted registration leaves exactly one member on its Addr whose
// lease a heartbeat renews.
func FuzzRegistryHandler(f *testing.F) {
	valid := `{"name":"w","addr":"http://a","weight":2,` + compatible + `}`
	f.Add(true, true, valid)
	f.Add(true, true, `{"addr":"http://b","stream":"splitmix-old/0","goarch":"`+runtime.GOARCH+`"}`)
	f.Add(true, true, `{"addr":"http://c","stream":"`+rng.StreamVersion+`","goarch":"foreign"}`)
	f.Add(true, true, `{"addr":"",`+compatible+`}`)
	f.Add(true, true, `{"addr":"`+strings.Repeat("x", maxRequestBody)+`",`+compatible+`}`)
	f.Add(false, true, `{"id":"nobody#99"}`)
	f.Add(false, false, `{"id":"seed#1"}`)
	f.Fuzz(func(t *testing.T, register, post bool, body string) {
		reg := NewRegistry(RegistryOptions{Heartbeat: time.Hour, Dial: fakeDial})
		defer reg.Close()
		h := reg.Handler()
		// A standing member, so a fuzzed registration can collide with
		// an Addr the registry already holds.
		if status, out := registryPost(h, http.MethodPost, "/v1/register",
			`{"name":"seed","addr":"http://a",`+compatible+`}`); status != http.StatusOK {
			t.Fatalf("seed registration: %d %s", status, out)
		}

		path := "/v1/heartbeat"
		if register {
			path = "/v1/register"
		}
		method := http.MethodGet
		if post {
			method = http.MethodPost
		}
		status, out := registryPost(h, method, path, body)
		switch status {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s answered %d: %s", method, path, status, out)
		}
		if !register || status != http.StatusOK {
			return
		}

		var caps Capabilities
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&caps); err != nil {
			t.Fatalf("registration accepted a body the test cannot decode: %v", err)
		}
		holders := 0
		for _, c := range reg.Snapshot() {
			if c.Addr == caps.Addr {
				holders++
			}
		}
		if holders != 1 {
			t.Fatalf("%d members hold addr %q after its registration, want 1", holders, caps.Addr)
		}
		var lease registerResponse
		if err := json.Unmarshal([]byte(out), &lease); err != nil {
			t.Fatalf("register response %q: %v", out, err)
		}
		beat, err := json.Marshal(map[string]string{"id": lease.ID})
		if err != nil {
			t.Fatal(err)
		}
		if status, out := registryPost(h, http.MethodPost, "/v1/heartbeat", string(beat)); status != http.StatusOK {
			t.Fatalf("heartbeat for fresh lease %q answered %d: %s", lease.ID, status, out)
		}
	})
}
