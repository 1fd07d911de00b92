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
	"os"
	"time"

	"glade/internal/cluster"
	"glade/internal/service"
)

// node is one glade-serve daemon booted in-process on loopback, wired the
// way cmd/glade-serve wires it: service.New behind cluster.NewRouter over a
// one-peer ring. With a recorder, the router and the service handler are
// each wrapped in a timing http.Handler.
type node struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	client *http.Client
}

// bootNode starts a node whose store lives in a fresh directory under
// workDir. The service settings are glade-serve's flag defaults.
func bootNode(workDir string, rec *recorder) (*node, error) {
	dir, err := os.MkdirTemp(workDir, "node-*")
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	srv, err := service.New(service.Config{
		DataDir:              dir,
		MaxJobs:              2,
		QueueDepth:           256,
		DefaultWorkers:       1,
		MaxJobDuration:       5 * time.Minute,
		DefaultOracleTimeout: 10 * time.Second,
		MaxValidating:        2,
		MaxCampaigns:         1,
		MaxCampaignDuration:  10 * time.Minute,
		MaxRetries:           8,
		BreakerThreshold:     16,
		Logger:               logger,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	addr := ln.Addr().String()
	ring, err := cluster.NewRing([]string{addr}, 0)
	if err != nil {
		ln.Close()
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	local := srv.Handler()
	if rec != nil {
		local = timed("handler", rec, local)
	}
	prober := cluster.NewProber(addr, ring.Peers(), 0, logger)
	router, err := cluster.NewRouter(addr, ring, prober, local, logger)
	if err != nil {
		ln.Close()
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	var front http.Handler = router
	if rec != nil {
		front = timed("router", rec, front)
	}
	hs := &http.Server{Handler: front, ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	return &node{
		srv:  srv,
		hs:   hs,
		base: "http://" + addr,
		dir:  dir,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
	}, nil
}

// close shuts the node down the way glade-serve does on SIGTERM — drain,
// stop HTTP, wait for running jobs — and removes its store.
func (n *node) close() {
	n.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	n.srv.Close()
	n.client.CloseIdleConnections()
	os.RemoveAll(n.dir)
}

// do sends one request to the node and returns the status and body. A
// non-empty tp is sent as the traceparent header.
func (n *node) do(method, path string, body []byte, tp string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, n.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes a 2xx JSON body into v.
func (n *node) getJSON(path string, v any) error {
	code, body, err := n.do(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}
