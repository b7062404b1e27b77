package coordinator

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"time"

	"chaffmec/internal/report"
	"chaffmec/internal/scenario"
)

// Transport hands one shard Job to a worker and returns its Report. The
// two implementations cover the deployment ladder: InProcess (tests and
// single-binary fleets) and HTTP (a long-lived Handler worker:
// `experiments -serve`, `-worker-daemon`, or one of the local children
// `-workers N` spawns).
//
// A Transport must honor ctx: the coordinator cancels dispatches whose
// shard was resolved by another worker (straggler replacement) and
// expects Run to return promptly. Run may return a non-nil PREFIX
// report together with an error wrapping ErrPartial when the worker
// died mid-shard but checkpointed the chunks it completed — the
// coordinator banks the prefix and re-dispatches only the remainder.
type Transport interface {
	// Name labels the worker in events and logs.
	Name() string
	// Run executes the job's shard and returns its (possibly partial)
	// report.
	Run(ctx context.Context, job scenario.Job) (*report.Report, error)
}

// ErrPartial marks a transport result that covers only a prefix of the
// requested shard: the worker was terminated (or crashed politely)
// after checkpointing some chunks. The accompanying report is valid —
// only incomplete.
var ErrPartial = errors.New("coordinator: worker finished only part of its shard")

// ErrBadJob marks worker input that never was a runnable Job: malformed
// JSON, an unknown scenario kind or strategy, an invalid shard selector.
// The worker Handler answers it with HTTP 400 before running anything,
// the HTTP transport reads a 400 back as ErrBadJob, and the coordinator
// fails the campaign on it at once: another worker would refuse the
// same job.
var ErrBadJob = errors.New("coordinator: malformed worker job")

// Content types: every worker response is a self-describing count-1
// binary+gzip report envelope (mimeReports); job, registry and health
// bodies are JSON. The types exist for proxies, logs and humans.
const (
	mimeJSON    = "application/json"
	mimeReports = "application/x-chaffmec-reports+gzip"
)

// WireStats is one dispatch's wire cost: encoded bytes each way and the
// report encoding detected on the response.
type WireStats struct {
	// Sent counts job bytes written to the worker, summed over retry
	// attempts; Received counts report bytes read back.
	Sent     int64
	Received int64
	// Encoding is the report encoding detected on the response.
	Encoding report.Encoding
}

// WireReporter is implemented by transports that can report the wire
// cost of their most recent Run. The coordinator surfaces it on result
// events; a transport is only ever running one dispatch, so reading
// after Run returns is race-free.
type WireReporter interface {
	LastWire() WireStats
}

// EnvelopeReporter is implemented by transports that keep the encoded
// count-1 envelope their most recent Run decoded its full report from
// (nil after a partial or a failure). The coordinator journals those
// bytes as the shard's record instead of encoding the report again;
// other transports' reports are encoded. Like LastWire, it is read
// after Run returns.
type EnvelopeReporter interface {
	LastEnvelope() []byte
}

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeReportStream reads exactly one report from a worker response:
// a count-1 envelope, read whole through report.ReadReports. It returns
// the encoding detected from the first byte for wire accounting.
func decodeReportStream(r io.Reader) (*report.Report, report.Encoding, error) {
	br := bufio.NewReader(r)
	enc := report.EncodingJSON
	switch head, _ := br.Peek(1); string(head) {
	case "\x1f":
		enc = report.EncodingBinaryGzip
	case "C":
		enc = report.EncodingBinary
	}
	reps, err := report.ReadReports(br)
	if err != nil {
		return nil, enc, fmt.Errorf("coordinator: parsing worker report: %w", err)
	}
	if len(reps) != 1 {
		return nil, enc, fmt.Errorf("coordinator: worker returned %d reports, want 1", len(reps))
	}
	return reps[0], enc, nil
}

// InProcess executes jobs on this process's scenario registry — the
// zero-infrastructure fleet for tests and single-binary runs.
type InProcess struct {
	// Label names the worker (default "inprocess").
	Label string
}

// Name implements Transport.
func (t *InProcess) Name() string {
	if t.Label == "" {
		return "inprocess"
	}
	return t.Label
}

// Run implements Transport: a job the Handler would refuse fails here
// with the same ErrBadJob.
func (t *InProcess) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	if err := validateJob(job); err != nil {
		return nil, err
	}
	rep, err := scenario.RunJob(ctx, job)
	return rep, asBadJob(err)
}

// InProcessFleet returns n in-process workers.
func InProcessFleet(n int) []Transport {
	out := make([]Transport, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, &InProcess{Label: fmt.Sprintf("inprocess-%d", i)})
	}
	return out
}

// tailLines keeps an error body from a worker or registry actionable
// without pasting a whole log into one error: its last three lines.
func tailLines(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return "(empty body)"
	}
	lines := strings.Split(s, "\n")
	if len(lines) > 3 {
		lines = lines[len(lines)-3:]
	}
	return strings.Join(lines, " | ")
}

// HTTP dispatches to a long-lived worker serving the Handler API
// (`experiments -serve` / `-worker-daemon`): POST {URL}/v1/run with the
// Job JSON. Status 200 carries the full report, 206 a checkpointed
// prefix (ErrPartial), both as a binary+gzip envelope. Connection-refused
// and connection-reset failures — a worker restarting, a briefly
// saturated accept queue — are retried in place with a short
// exponential backoff before they count as a worker failure.
type HTTP struct {
	// Label names the worker (default: the URL).
	Label string
	// URL is the worker's base URL, e.g. http://host:8080.
	URL string
	// Client overrides http.DefaultClient.
	Client *http.Client

	lastWire     WireStats
	lastEnvelope []byte
}

// Name implements Transport.
func (t *HTTP) Name() string {
	if t.Label == "" {
		return t.URL
	}
	return t.Label
}

// LastWire implements WireReporter.
func (t *HTTP) LastWire() WireStats { return t.lastWire }

// LastEnvelope implements EnvelopeReporter: the response body of the
// most recent Run's full (200) result.
func (t *HTTP) LastEnvelope() []byte { return t.lastEnvelope }

// httpRetries and httpBackoff shape the transient-error retry: two
// in-place retries, 50ms then 200ms.
const httpRetries = 2

var httpBackoff = 50 * time.Millisecond

// transientNetErr recognizes the dial-level failures worth retrying in
// place: nobody accepted the connection, so the worker never saw the
// job and a retry cannot duplicate work.
func transientNetErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// Run implements Transport.
func (t *HTTP) Run(ctx context.Context, job scenario.Job) (*report.Report, error) {
	blob, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	t.lastWire, t.lastEnvelope = WireStats{}, nil
	backoff := httpBackoff
	for attempt := 0; ; attempt++ {
		rep, err := t.post(ctx, blob)
		if err == nil || attempt >= httpRetries || !transientNetErr(err) || ctx.Err() != nil {
			return rep, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 4
	}
}

// post is one dispatch attempt: POST {URL}/v1/run.
func (t *HTTP) post(ctx context.Context, blob []byte) (*report.Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		trimURL(t.URL)+"/v1/run", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", mimeJSON)
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	t.lastWire.Sent += int64(len(blob))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("coordinator: %s: %w", t.Name(), err)
	}
	defer resp.Body.Close()
	cr := &countingReader{r: resp.Body}
	defer func() {
		io.Copy(io.Discard, cr) //nolint:errcheck // drain for connection reuse
		t.lastWire.Received += cr.n
	}()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		// Keep the bytes a full report decodes from: they are its
		// journal record as they stand.
		var body bytes.Buffer
		rep, gotEnc, derr := decodeReportStream(io.TeeReader(cr, &body))
		t.lastWire.Encoding = gotEnc
		if derr != nil {
			return nil, derr
		}
		if resp.StatusCode == http.StatusPartialContent {
			return rep, fmt.Errorf("%w: %s", ErrPartial, t.Name())
		}
		t.lastEnvelope = body.Bytes()
		return rep, nil
	case http.StatusBadRequest:
		body, _ := io.ReadAll(io.LimitReader(cr, 4096))
		return nil, fmt.Errorf("%w: %s: HTTP 400: %s", ErrBadJob, t.Name(), tailLines(string(body)))
	default:
		body, _ := io.ReadAll(io.LimitReader(cr, 4096))
		return nil, fmt.Errorf("coordinator: %s: HTTP %d: %s", t.Name(), resp.StatusCode, tailLines(string(body)))
	}
}

// trimURL strips a base URL's trailing slash so paths join cleanly.
func trimURL(u string) string { return strings.TrimRight(u, "/") }

// HTTPFleet returns one HTTP worker per base URL.
func HTTPFleet(urls ...string) []Transport {
	out := make([]Transport, 0, len(urls))
	for _, u := range urls {
		out = append(out, &HTTP{URL: u})
	}
	return out
}
