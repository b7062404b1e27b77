package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"chaffmec/internal/rng"
)

// DaemonOptions configures one persistent worker's registration loop.
type DaemonOptions struct {
	// Registry is the coordinator registry's base URL (the host serving
	// POST /v1/register and /v1/heartbeat).
	Registry string
	// Advertise is the base URL the coordinator should dispatch to —
	// this worker's own Handler listener.
	Advertise string
	// Name labels the worker (default: Advertise).
	Name string
	// Weight is the announced capacity weight (default 1).
	Weight float64
	// Client overrides http.DefaultClient for registry calls.
	Client *http.Client
}

// daemonBackoff shapes re-registration after a registry failure: start
// here, double per consecutive failure, cap at daemonBackoffMax.
var (
	daemonBackoff    = 100 * time.Millisecond
	daemonBackoffMax = 5 * time.Second
)

// RunDaemon is the registration half of a persistent worker (the
// `experiments -worker-daemon` body, next to its Handler listener): it
// registers with the coordinator's registry announcing this worker's
// Capabilities, then heartbeats at the interval the registry granted.
// A lost lease (404: the registry evicted us, or restarted) or an
// unreachable registry re-registers with exponential backoff — the
// worker stays up and rejoins the fleet by itself. Returns when ctx
// ends (ctx.Err()), or immediately on a permanent rejection (HTTP 409:
// an rng stream version or GOARCH other than the registry's cannot heal
// by retrying).
func RunDaemon(ctx context.Context, opts DaemonOptions) error {
	if opts.Registry == "" {
		return fmt.Errorf("coordinator: daemon needs a registry URL")
	}
	if opts.Advertise == "" {
		return fmt.Errorf("coordinator: daemon needs an advertise URL")
	}
	client := opts.Client
	if client == nil {
		client = http.DefaultClient
	}
	caps := Capabilities{
		Name:   opts.Name,
		Addr:   opts.Advertise,
		Weight: opts.Weight,
		GOARCH: runtime.GOARCH,
		Stream: rng.StreamVersion,
	}
	backoff := daemonBackoff
	for {
		lease, err := daemonRegister(ctx, client, opts.Registry, caps)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			var pe *permanentRegistrationError
			if errors.As(err, &pe) {
				return err
			}
			if !sleepCtx(ctx, backoff) {
				return ctx.Err()
			}
			backoff = min(backoff*2, daemonBackoffMax)
			continue
		}
		backoff = daemonBackoff
		if err := daemonHeartbeats(ctx, client, opts.Registry, lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // lease lost or registry unreachable: re-register
		}
		return ctx.Err()
	}
}

// permanentRegistrationError marks registry rejections retrying cannot
// fix (HTTP 409: a foreign or absent rng stream version or GOARCH).
type permanentRegistrationError struct{ msg string }

func (e *permanentRegistrationError) Error() string { return e.msg }

func daemonRegister(ctx context.Context, client *http.Client, registry string, caps Capabilities) (registerResponse, error) {
	blob, err := json.Marshal(caps)
	if err != nil {
		return registerResponse{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		trimURL(registry)+"/v1/register", bytes.NewReader(blob))
	if err != nil {
		return registerResponse{}, err
	}
	req.Header.Set("Content-Type", mimeJSON)
	resp, err := client.Do(req)
	if err != nil {
		return registerResponse{}, fmt.Errorf("coordinator: registering with %s: %w", registry, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		msg := fmt.Sprintf("coordinator: registry %s refused registration: HTTP %d: %s",
			registry, resp.StatusCode, tailLines(string(body)))
		if resp.StatusCode == http.StatusConflict {
			return registerResponse{}, &permanentRegistrationError{msg: msg}
		}
		return registerResponse{}, fmt.Errorf("%s", msg)
	}
	var lease registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		return registerResponse{}, fmt.Errorf("coordinator: parsing register response: %w", err)
	}
	if lease.ID == "" || lease.HeartbeatMS <= 0 {
		return registerResponse{}, fmt.Errorf("coordinator: registry granted no usable lease (id %q, heartbeat %dms)", lease.ID, lease.HeartbeatMS)
	}
	return lease, nil
}

// daemonHeartbeats renews the lease until ctx ends (nil) or the lease
// is lost (error: the caller re-registers).
func daemonHeartbeats(ctx context.Context, client *http.Client, registry string, lease registerResponse) error {
	blob, err := json.Marshal(struct {
		ID string `json:"id"`
	}{ID: lease.ID})
	if err != nil {
		return err
	}
	tick := time.NewTicker(time.Duration(lease.HeartbeatMS) * time.Millisecond)
	defer tick.Stop()
	misses := 0
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			trimURL(registry)+"/v1/heartbeat", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", mimeJSON)
		resp, err := client.Do(req)
		if err != nil {
			// One flaky beat must not desert a healthy lease; after a few
			// consecutive misses the lease has expired anyway — re-register.
			if misses++; misses >= 3 {
				return fmt.Errorf("coordinator: heartbeat unreachable: %w", err)
			}
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			misses = 0
		case http.StatusNotFound:
			return fmt.Errorf("coordinator: lease %q evicted", lease.ID)
		default:
			if misses++; misses >= 3 {
				return fmt.Errorf("coordinator: heartbeat rejected: HTTP %d", resp.StatusCode)
			}
		}
	}
}

// sleepCtx sleeps d unless ctx ends first; reports whether it slept the
// full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
