package mcbench

// The fleet peer adapter: internal/fleet speaks to remote nodes through
// its Peer interface, and this file implements it over Client — so
// coordinator↔worker traffic inherits the client's retries, backoff and
// typed errors. The adapter is injected into the serve layer as a
// Dialer (see Serve), which keeps the import direction acyclic:
// mcbench → internal/serve → internal/fleet.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"mcbench/internal/experiments"
	"mcbench/internal/fleet"
	"mcbench/internal/serve"
	"mcbench/internal/telemetry"
)

// SubmitWarm submits a warm job: the server precomputes the named
// campaign products into its lab and persistent cache without rendering
// a table. On a fleet coordinator the plan is sharded across the
// workers; this is how a campaign's sweeps are pre-distributed before
// interactive submissions need them.
func (c *Client) SubmitWarm(ctx context.Context, products []ProductRef) (*JobStatus, error) {
	return c.submit(ctx, serve.SubmitRequest{
		Kind: serve.KindWarm,
		Warm: &serve.WarmRequest{Products: products},
	})
}

// CacheGet fetches one stored table's raw bytes by content key
// (GET /cache/{key}), integrity footer included — the fleet's result
// fabric. ok is false on a plain 404 miss.
func (c *Client) CacheGet(ctx context.Context, key string) (data []byte, ok bool, err error) {
	_, data, err = c.getRaw(ctx, "/cache/"+url.PathEscape(key))
	if err != nil {
		if IsNotFound(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	return data, true, nil
}

// clientPeer adapts Client to fleet.Peer.
type clientPeer struct{ c *Client }

// Join posts the registration handshake (POST /fleet/join). A
// coordinator that rejects the worker as incompatible (mixed builds, lab
// configurations or models) answers 409, which maps to
// fleet.ErrIncompatible.
func (p clientPeer) Join(ctx context.Context, req fleet.JoinRequest) (*fleet.JoinResponse, error) {
	var resp fleet.JoinResponse
	if err := p.c.do(ctx, http.MethodPost, "/fleet/join", req, &resp); err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusConflict {
			return nil, fmt.Errorf("%w: %s", fleet.ErrIncompatible, ae.Message)
		}
		return nil, err
	}
	return &resp, nil
}

// Heartbeat renews the membership lease. A 404 means the coordinator no
// longer knows the id (restart or lease lapse): the agent re-joins.
func (p clientPeer) Heartbeat(ctx context.Context, id string) error {
	return p.c.do(ctx, http.MethodPost, "/fleet/heartbeat", map[string]string{"id": id}, nil)
}

// Leave deregisters the membership (idempotent).
func (p clientPeer) Leave(ctx context.Context, id string) error {
	return p.c.do(ctx, http.MethodPost, "/fleet/leave", map[string]string{"id": id}, nil)
}

func (p clientPeer) SubmitWarm(ctx context.Context, products []experiments.Request) (string, error) {
	refs := make([]ProductRef, len(products))
	for i, r := range products {
		refs[i] = ProductRef{Sim: string(r.Sim), Cores: r.Cores, Policy: string(r.Policy)}
	}
	st, err := p.c.SubmitWarm(ctx, refs)
	if err != nil {
		return "", err
	}
	return st.ID, nil
}

func (p clientPeer) WaitJob(ctx context.Context, jobID string) error {
	_, err := p.c.Wait(ctx, jobID)
	return err
}

func (p clientPeer) CancelJob(ctx context.Context, jobID string) error {
	_, err := p.c.Cancel(ctx, jobID)
	return err
}

func (p clientPeer) FetchCache(ctx context.Context, key string) ([]byte, bool, error) {
	return p.c.CacheGet(ctx, key)
}

// FetchMetrics implements fleet.MetricsFetcher: the coordinator's
// /fleet/metrics aggregation scrapes each worker through it.
func (p clientPeer) FetchMetrics(ctx context.Context) (*telemetry.Snapshot, error) {
	return p.c.Metrics(ctx)
}

// dialPeer opens a fleet peer for an advertised address, accepting both
// bare "host:port" (the common -join form) and full http(s) URLs.
func dialPeer(addr string) (fleet.Peer, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c, err := NewClient(base)
	if err != nil {
		return nil, err
	}
	return clientPeer{c}, nil
}
