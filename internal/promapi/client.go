package promapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/labels"
	"repro/internal/promql"
)

// Client asks a Prometheus query API its instant queries: how the
// standalone CEEMS API server reads a separately deployed Prometheus,
// Thanos or prometheus_sim. Requests go through http.DefaultClient.
type Client struct {
	// BaseURL is the query API's address, e.g. "http://tsdb:9090".
	BaseURL string
}

const (
	// maxAnswerBytes caps the answer the client reads. The API server asks
	// for a few series of one unit at a time; an answer this large is not
	// one it asked for.
	maxAnswerBytes = 8 << 20
	// clientTimeout bounds one query, answer read included.
	clientTimeout = 30 * time.Second
)

// InstantCtx evaluates query at ts by GET /api/v1/query. The time is sent as
// decimal seconds, exact to the millisecond, and the answer's vector keeps
// the order the server wrote it in. A status other than 200 is an error
// carrying the status and the start of the body, so a proxy's HTML error
// page reads as what it is.
func (c *Client) InstantCtx(ctx context.Context, query string, ts time.Time) (promql.Value, error) {
	ctx, cancel := context.WithTimeout(ctx, clientTimeout)
	defer cancel()
	params := url.Values{"query": {query}, "time": {string(appendSeconds(nil, ts.UnixMilli()))}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/api/v1/query?"+params.Encode(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("promapi: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The status is the error; a body that fails mid-read still shows
		// what arrived.
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("promapi: query: status %s: %s", resp.Status, bytes.TrimSpace(snippet))
	}
	v, err := decodeInstant(resp.Body, maxAnswerBytes)
	if err != nil {
		return nil, fmt.Errorf("promapi: query: %w", err)
	}
	return v, nil
}

// decodeInstant reads an /api/v1/query answer into a promql.Vector or
// promql.Scalar, reading no more than limit+1 bytes of r. An answer past
// limit, an error envelope and any other result type are errors.
func decodeInstant(r io.Reader, limit int64) (promql.Value, error) {
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("answer exceeds %d bytes", limit)
	}
	var env struct {
		Status, Error string
		Data          struct {
			ResultType string
			Result     json.RawMessage
		}
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Status != "success" {
		return nil, fmt.Errorf("status %q: %s", env.Status, env.Error)
	}
	switch env.Data.ResultType {
	case "vector":
		var result []struct {
			Metric map[string]string
			Value  *answerPair
		}
		if err := json.Unmarshal(env.Data.Result, &result); err != nil {
			return nil, err
		}
		vec := make(promql.Vector, len(result))
		for i, s := range result {
			if s.Value == nil {
				return nil, errors.New("vector sample without a value")
			}
			vec[i] = promql.Sample{Labels: labels.FromMap(s.Metric), T: s.Value.T, V: s.Value.V}
		}
		return vec, nil
	case "scalar":
		var p answerPair
		if err := json.Unmarshal(env.Data.Result, &p); err != nil {
			return nil, err
		}
		return promql.Scalar(p), nil
	}
	return nil, fmt.Errorf("unsupported result type %q", env.Data.ResultType)
}

// answerPair is one [unix_seconds, "value"] sample of an answer: the
// seconds read back to the millisecond they were written from, and the
// value, "NaN" and "±Inf" included, to the bit model.AppendFloat wrote.
type answerPair promql.Scalar

func (p *answerPair) UnmarshalJSON(data []byte) error {
	var pair [2]json.RawMessage
	var v string
	if err := json.Unmarshal(data, &pair); err != nil {
		return err
	}
	if err := json.Unmarshal(pair[1], &v); err != nil {
		return err
	}
	t, ok := parseSeconds(string(pair[0]), time.Millisecond)
	f, err := strconv.ParseFloat(v, 64)
	if !ok || err != nil {
		return fmt.Errorf("bad sample %s", data)
	}
	p.T, p.V = t, f
	return nil
}
