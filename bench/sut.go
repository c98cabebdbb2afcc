package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"time"

	"lash/server"
)

// sut is the system under test: the mining service with lashd's defaults
// (4 job workers, 256 MiB result cache, 1024 job records, no rate limit,
// info-level text logging — lashd logs every request — here into
// io.Discard) behind a real http.Server on a loopback TCP listener, wired
// the way cmd/lashd/main.go wires it.
type sut struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan error
}

func startSUT() (*sut, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv := server.New(server.Config{Workers: 4, CacheBytes: 256 << 20, JobHistory: 1024, Logger: logger})
	s := &sut{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the job manager down and waits for both.
func (s *sut) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx) //nolint:errcheck // best-effort teardown of a benchmark fixture
	s.srv.Close(ctx)     //nolint:errcheck // same
	<-s.done
}

// client is one load-generator connection: its own transport holding a
// single keep-alive connection, and a reply buffer reused across requests.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func (s *sut) newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: s.base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. elapsed runs from just
// before the first byte is sent to just after the last byte is read;
// building the request and anything done with the reply are outside it. The
// reply aliases the client's buffer until the next call.
func (c *client) do(method, path, contentType string, body []byte) (status int, reply []byte, elapsed time.Duration, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(start), err
}

func (c *client) get(path string) (int, []byte, time.Duration, error) {
	return c.do(http.MethodGet, path, "", nil)
}

// expect turns a transport error or an unexpected status into an error that
// quotes the start of the reply.
func expect(want, status int, reply []byte, err error) error {
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, reply)
	}
	return nil
}

// register uploads the corpus under name as a raw .ldb body.
func (c *client) register(name string, ldb []byte) (time.Duration, error) {
	status, reply, d, err := c.do(http.MethodPost, "/v1/databases?name="+url.QueryEscape(name), "application/x-lash-ldb", ldb)
	return d, expect(http.StatusCreated, status, reply, err)
}

// mined is one POST /v1/mine wait:true exchange: the decoded job, how long
// the exchange took and how many bytes came back.
type mined struct {
	job     server.JobView
	elapsed time.Duration
	bytes   int
}

// mine submits a blocking mine and decodes the reply (outside the timing).
func (c *client) mine(db string, opt server.OptionsSpec) (mined, error) {
	reply, elapsed, err := c.mineSend(db, opt)
	if err != nil {
		return mined{}, err
	}
	return decodeMined(reply, elapsed)
}

// mineSend is the exchange half of mine.
func (c *client) mineSend(db string, opt server.OptionsSpec) ([]byte, time.Duration, error) {
	body, err := json.Marshal(server.MineRequest{Database: db, Options: opt, Wait: true})
	if err != nil {
		return nil, 0, err
	}
	status, reply, d, err := c.do(http.MethodPost, "/v1/mine", "application/json", body)
	return reply, d, expect(http.StatusOK, status, reply, err)
}

// decodeMined is the decoding half of mine.
func decodeMined(reply []byte, elapsed time.Duration) (mined, error) {
	m := mined{elapsed: elapsed, bytes: len(reply)}
	if err := json.Unmarshal(reply, &m.job); err != nil {
		return mined{}, err
	}
	if m.job.Status != server.JobDone || m.job.Result == nil {
		return mined{}, fmt.Errorf("job %s ended %s: %s", m.job.ID, m.job.Status, m.job.Error)
	}
	return m, nil
}

func (m mined) digest() digest {
	var d digest
	for _, p := range m.job.Result.Patterns {
		d.add(p.Items, p.Support)
	}
	return d
}

// appendSeqs posts sequences as the next corpus version of db and returns
// the version the service installed.
func (c *client) appendSeqs(db string, seqs []string) (int, time.Duration, error) {
	body, err := json.Marshal(server.AppendSpec{Sequences: seqs})
	if err != nil {
		return 0, 0, err
	}
	status, reply, d, err := c.do(http.MethodPost, "/v1/databases/"+url.PathEscape(db)+"/sequences", "application/json", body)
	if err := expect(http.StatusOK, status, reply, err); err != nil {
		return 0, d, err
	}
	var info server.DatabaseInfo
	if err := json.Unmarshal(reply, &info); err != nil {
		return 0, d, err
	}
	return info.Version, d, nil
}

// page is the reply of GET /v1/patterns.
type page struct {
	Total    int                  `json:"total"`
	Returned int                  `json:"returned"`
	Patterns []server.PatternView `json:"patterns"`
}
