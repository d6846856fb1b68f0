package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"privbayes/internal/accountant"
	"privbayes/internal/curator"
	"privbayes/internal/telemetry"
)

// Client talks to a privbayesd instance. It is the programmatic
// counterpart of the HTTP API: examples, the serving benchmarks, and
// downstream Go consumers use it instead of hand-rolled requests.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8131".
	BaseURL string
	// HTTP is the underlying client; nil selects http.DefaultClient.
	HTTP *http.Client
	// Retry is the backoff policy for transient failures (network
	// errors, 429/502/503/504). The zero value disables retries; see
	// DefaultRetryPolicy. Requests whose bodies cannot be replayed
	// (non-seekable uploads) are never retried regardless of policy.
	Retry RetryPolicy
	// Logger, when non-nil, receives one structured line per retry
	// attempt: the failure being retried (status or transport error),
	// the backoff chosen, and any server Retry-After hint. Nil keeps
	// the client silent.
	Logger *slog.Logger
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// APIError is a decoded non-2xx server response. Error() keeps the
// historical "server: <status>[: <message>]" text; the fields expose
// what the text flattens — in particular RequestID, the server's
// X-Privbayes-Request-Id echo, which is the handle to grep the
// daemon's logs for the exact request that failed. Unwrap with
// errors.As:
//
//	var apiErr *server.APIError
//	if errors.As(err, &apiErr) { correlate(apiErr.RequestID) }
type APIError struct {
	// StatusCode is the numeric HTTP status, e.g. 429.
	StatusCode int
	// Status is the full status line, e.g. "429 Too Many Requests".
	Status string
	// Message is the server's error body, when it sent one.
	Message string
	// RequestID is the X-Privbayes-Request-Id the daemon assigned (or
	// accepted) for the failed request; empty when talking to servers
	// that predate request IDs.
	RequestID string
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("server: %s", e.Status)
}

// apiError decodes a non-2xx response into an *APIError.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	e := &APIError{
		StatusCode: resp.StatusCode,
		Status:     resp.Status,
		RequestID:  resp.Header.Get(telemetry.RequestIDHeader),
	}
	var body errorBody
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		e.Message = body.Error
	}
	return e
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	})
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]any
	return c.getJSON(ctx, "/healthz", &out)
}

// Models lists the registered models.
func (c *Client) Models(ctx context.Context) ([]ModelMeta, error) {
	var out struct {
		Models []ModelMeta `json:"models"`
	}
	err := c.getJSON(ctx, "/models", &out)
	return out.Models, err
}

// Model fetches one model's metadata.
func (c *Client) Model(ctx context.Context, id string) (ModelMeta, error) {
	var out ModelMeta
	err := c.getJSON(ctx, "/models/"+url.PathEscape(id), &out)
	return out, err
}

// Budget returns the per-dataset privacy ledger.
func (c *Client) Budget(ctx context.Context) (map[string]accountant.Entry, error) {
	var out struct {
		Datasets map[string]accountant.Entry `json:"datasets"`
	}
	err := c.getJSON(ctx, "/budget", &out)
	return out.Datasets, err
}

// Upload registers a SaveModel artifact read from r. Empty id lets the
// server assign one.
func (c *Client) Upload(ctx context.Context, id string, artifact io.Reader) (ModelMeta, error) {
	u := c.BaseURL + "/models"
	if id != "" {
		u += "?id=" + url.QueryEscape(id)
	}
	// Uploads retry only when the artifact can be replayed from the
	// start; a one-shot stream gets a single attempt.
	seeker, rewindable := artifact.(io.Seeker)
	sender := c.forBody(rewindable)
	first := true
	resp, err := sender.do(ctx, func() (*http.Request, error) {
		if !first {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return nil, err
			}
		}
		first = false
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, artifact)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return ModelMeta{}, err
	}
	if resp.StatusCode != http.StatusCreated {
		return ModelMeta{}, apiError(resp)
	}
	defer resp.Body.Close()
	var meta ModelMeta
	err = json.NewDecoder(resp.Body).Decode(&meta)
	return meta, err
}

// SynthesizeRequest parameterizes a synthesis stream.
type SynthesizeRequest struct {
	// N is the number of rows (required).
	N int
	// Seed pins the RNG stream; nil lets the server draw one (echoed in
	// the response's Seed).
	Seed *int64
	// Format is "csv" (default) or "jsonl".
	Format string
	// Parallelism asks for up to this many workers from the server's
	// budget; 0 accepts the server default.
	Parallelism int
}

// SynthesisStream is a live streaming response: read Body incrementally
// (rows arrive in chunks as the server generates them) and Close when
// done.
type SynthesisStream struct {
	// Body streams the csv/jsonl payload.
	Body io.ReadCloser
	// Seed is the RNG seed the server used — pass it back via
	// SynthesizeRequest.Seed to reproduce the stream byte for byte.
	Seed int64
}

func (s *SynthesisStream) Close() error { return s.Body.Close() }

// Synthesize opens a synthesis stream from a registered model.
func (c *Client) Synthesize(ctx context.Context, id string, sr SynthesizeRequest) (*SynthesisStream, error) {
	q := url.Values{}
	q.Set("n", strconv.Itoa(sr.N))
	if sr.Seed != nil {
		q.Set("seed", strconv.FormatInt(*sr.Seed, 10))
	}
	if sr.Format != "" {
		q.Set("format", sr.Format)
	}
	if sr.Parallelism > 0 {
		q.Set("parallelism", strconv.Itoa(sr.Parallelism))
	}
	u := c.BaseURL + "/models/" + url.PathEscape(id) + "/synthesize?" + q.Encode()
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	seed, _ := strconv.ParseInt(resp.Header.Get("X-Privbayes-Seed"), 10, 64)
	return &SynthesisStream{Body: resp.Body, Seed: seed}, nil
}

// Marginal asks for the exact marginal distribution over the named
// attributes (see Model.Query with Marginal). maxCells 0 accepts the server
// default bound.
func (c *Client) Marginal(ctx context.Context, id string, attrs []string, maxCells int) (MarginalResult, error) {
	body, err := json.Marshal(marginalRequest{Attrs: attrs, MaxCells: maxCells})
	if err != nil {
		return MarginalResult{}, err
	}
	u := c.BaseURL + "/models/" + url.PathEscape(id) + "/marginal"
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return MarginalResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return MarginalResult{}, apiError(resp)
	}
	defer resp.Body.Close()
	var out MarginalResult
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// MarginalResult is a dense marginal distribution over the requested
// attributes, row-major with the last attribute varying fastest.
type MarginalResult struct {
	Attrs []string  `json:"attrs"`
	Dims  []int     `json:"dims"`
	P     []float64 `json:"p"`
}

// FitRequest parameterizes a curator-mode fit.
type FitRequest struct {
	// DatasetID keys the privacy ledger: every fit against the same id
	// composes sequentially toward its budget.
	DatasetID string
	// Epsilon is the total DP budget of this fit.
	Epsilon float64
	// ModelID optionally names the resulting model.
	ModelID string
	// Seed pins the fit RNG; nil lets the server draw one.
	Seed *int64
	// Parallelism asks for up to this many fit workers.
	Parallelism int
	// Schema describes the CSV columns.
	Schema []AttrSpec
	// Data streams the CSV (header row first). When it also implements
	// io.Seeker (bytes.Reader, *os.File), the upload can be replayed
	// and the fit becomes retryable under the client's RetryPolicy.
	Data io.Reader
	// IdempotencyKey makes the fit safe to retry: the server charges ε
	// exactly once per key, even across its own restarts. Empty with
	// retries enabled, the Client generates one, so an automatic retry
	// after an ambiguous network failure can never double-charge.
	IdempotencyKey string
}

// Fit uploads a dataset and fits a model under the dataset's privacy
// budget. The upload is streamed — schema and parameters first, then
// the CSV — so large datasets never buffer client-side.
func (c *Client) Fit(ctx context.Context, fr FitRequest) (ModelMeta, error) {
	seeker, rewindable := fr.Data.(io.Seeker)
	sender := c.forBody(rewindable)
	key := fr.IdempotencyKey
	if key == "" && sender.Retry.enabled() {
		key = newIdempotencyKey()
	}
	first := true
	resp, err := sender.do(ctx, func() (*http.Request, error) {
		if !first {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return nil, err
			}
		}
		first = false
		pr, pw := io.Pipe()
		mw := multipart.NewWriter(pw)
		go func() {
			err := writeFitBody(mw, fr)
			if cerr := mw.Close(); err == nil {
				err = cerr
			}
			pw.CloseWithError(err)
		}()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/fit", pr)
		if err != nil {
			pr.Close()
			return nil, err
		}
		req.Header.Set("Content-Type", mw.FormDataContentType())
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		return req, nil
	})
	if err != nil {
		return ModelMeta{}, err
	}
	// 201: the fit ran here. 200: an idempotent replay of a fit a
	// previous attempt already completed.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return ModelMeta{}, apiError(resp)
	}
	defer resp.Body.Close()
	var meta ModelMeta
	err = json.NewDecoder(resp.Body).Decode(&meta)
	return meta, err
}

// writeFitBody emits the multipart fields in the order the server
// requires: every scalar and the schema before the streamed data part.
func writeFitBody(mw *multipart.Writer, fr FitRequest) error {
	if err := mw.WriteField("dataset_id", fr.DatasetID); err != nil {
		return err
	}
	if err := mw.WriteField("epsilon", strconv.FormatFloat(fr.Epsilon, 'g', -1, 64)); err != nil {
		return err
	}
	if fr.ModelID != "" {
		if err := mw.WriteField("model_id", fr.ModelID); err != nil {
			return err
		}
	}
	if fr.Seed != nil {
		if err := mw.WriteField("seed", strconv.FormatInt(*fr.Seed, 10)); err != nil {
			return err
		}
	}
	if fr.Parallelism > 0 {
		if err := mw.WriteField("parallelism", strconv.Itoa(fr.Parallelism)); err != nil {
			return err
		}
	}
	schema, err := json.Marshal(fr.Schema)
	if err != nil {
		return err
	}
	if err := mw.WriteField("schema", string(schema)); err != nil {
		return err
	}
	part, err := mw.CreateFormFile("data", "data.csv")
	if err != nil {
		return err
	}
	_, err = io.Copy(part, fr.Data)
	return err
}

// CreateDataset registers a curated dataset for continuous ingest. The
// schema is fixed at creation; every appended batch must match it.
func (c *Client) CreateDataset(ctx context.Context, id string, schema []AttrSpec) (curator.Status, error) {
	body, err := json.Marshal(schema)
	if err != nil {
		return curator.Status{}, err
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/datasets/"+url.PathEscape(id), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return curator.Status{}, err
	}
	if resp.StatusCode != http.StatusCreated {
		return curator.Status{}, apiError(resp)
	}
	defer resp.Body.Close()
	var st curator.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// AppendResult reports an acknowledged row append.
type AppendResult struct {
	// Rows is the number of rows the server decoded from this batch.
	Rows int `json:"rows"`
	// Duplicate reports an idempotent replay: the key was already
	// acknowledged and nothing was appended again.
	Duplicate bool `json:"duplicate"`
	// TotalRows is the dataset's row count after the append.
	TotalRows int64 `json:"total_rows"`
}

// AppendRows appends one JSONL batch (one object per line, keyed by
// attribute name) to a curated dataset. A non-empty key makes the
// append idempotent; empty with retries enabled, the Client generates
// one so an automatic retry after an ambiguous network failure can
// never double-ingest the batch. A success return means the batch is
// fsynced into the dataset's crash-safe row log.
func (c *Client) AppendRows(ctx context.Context, id, key string, rows io.Reader) (AppendResult, error) {
	seeker, rewindable := rows.(io.Seeker)
	sender := c.forBody(rewindable)
	if key == "" && sender.Retry.enabled() {
		key = newIdempotencyKey()
	}
	first := true
	resp, err := sender.do(ctx, func() (*http.Request, error) {
		if !first {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return nil, err
			}
		}
		first = false
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			c.BaseURL+"/datasets/"+url.PathEscape(id)+"/rows", rows)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/jsonl")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		return req, nil
	})
	if err != nil {
		return AppendResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return AppendResult{}, apiError(resp)
	}
	defer resp.Body.Close()
	var out AppendResult
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// DatasetStatus fetches a curated dataset's ingest and refit standing.
func (c *Client) DatasetStatus(ctx context.Context, id string) (curator.Status, error) {
	var st curator.Status
	err := c.getJSON(ctx, "/datasets/"+url.PathEscape(id), &st)
	return st, err
}

// Datasets lists the curated datasets.
func (c *Client) Datasets(ctx context.Context) ([]curator.Status, error) {
	var out struct {
		Datasets []curator.Status `json:"datasets"`
	}
	err := c.getJSON(ctx, "/datasets", &out)
	return out.Datasets, err
}
