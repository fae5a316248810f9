package server

// Client is the Go client for the gbj HTTP API — the same code path
// gbj-shell -connect and the benchmark's serve_* workloads use, so the
// protocol has exactly one client implementation to keep honest.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
)

// APIError is a non-2xx response decoded back into Go: the HTTP status,
// the stable machine-readable code from the server's error table, and the
// server's message.
type APIError struct {
	Status  int
	Code    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %s (HTTP %d, code %s)", e.Message, e.Status, e.Code)
}

// IsAdmission reports whether the server rejected the request with its
// typed admission error (HTTP 429).
func (e *APIError) IsAdmission() bool { return e.Code == "admission" }

// Client talks to a gbj server.
type Client struct {
	base    string
	hc      *http.Client
	session string
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:7432"). The optional http.Client lets tests and
// benchmarks control transports; nil uses a fresh default client.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Session returns the open session id, "" when none.
func (c *Client) Session() string { return c.session }

// NewSession opens a session and remembers its id for Query calls.
func (c *Client) NewSession(ctx context.Context) error {
	var resp SessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/session", nil, &resp); err != nil {
		return err
	}
	c.session = resp.Session
	return nil
}

// CloseSession closes the open session, if any.
func (c *Client) CloseSession(ctx context.Context) error {
	if c.session == "" {
		return nil
	}
	err := c.do(ctx, http.MethodDelete, "/v1/session/"+c.session, nil, nil)
	c.session = ""
	return err
}

// QueryDetail runs a SELECT with optional parameters and returns the wire
// response: the rows with Go-native values (int64, float64, string, bool,
// nil) — the same value vocabulary gbj.Result uses — and the Degraded flag.
func (c *Client) QueryDetail(ctx context.Context, sqlText string, params map[string]any) (*QueryResponse, error) {
	req := QueryRequest{Session: c.session, SQL: sqlText, Params: params}
	var resp QueryResponse
	if err := c.do(ctx, http.MethodPost, "/v1/query", &req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Exec runs DDL/DML on the server.
func (c *Client) Exec(ctx context.Context, sqlText string) error {
	return c.do(ctx, http.MethodPost, "/v1/exec", &ExecRequest{SQL: sqlText}, nil)
}

// Stats fetches the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

func (c *Client) do(ctx context.Context, method, path string, body, dst any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			return &APIError{Status: resp.StatusCode, Code: "protocol", Message: fmt.Sprintf("undecodable error body: %v", err)}
		}
		return &APIError{Status: resp.StatusCode, Code: e.Code, Message: e.Error}
	}
	switch dst := dst.(type) {
	case nil:
	case *QueryResponse:
		err = readQueryResponse(resp, dst)
	default:
		err = json.NewDecoder(resp.Body).Decode(dst)
	}
	if err != nil {
		return fmt.Errorf("decoding %s response: %w", path, err)
	}
	return nil
}

// readQueryResponse reads the body into a pooled buffer, grown once when
// the server announced its length, and decodes it with the decoder written
// for the query grammar. Cells come back in the engine's value vocabulary —
// int64, float64, string, bool, nil — by the number rule of wire.go, so an
// HTTP result equals the direct-engine result in Go types as well as in
// values; the serve-oracle differential depends on that.
func readQueryResponse(resp *http.Response, dst *QueryResponse) error {
	bp := getBuffer()
	b := *bp
	if n := resp.ContentLength; n > 0 {
		b = slices.Grow(b, int(n))
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, 512)
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			putBuffer(bp, b)
			return err
		}
	}
	err := decodeQueryResponse(b, dst)
	putBuffer(bp, b)
	return err
}
