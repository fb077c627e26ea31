package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"websyn/internal/serve"
)

// startRouter builds a Router over the given wire addresses, runs its
// health loops, and serves its HTTP API from an httptest server.
func startRouter(t *testing.T, cfg RouterConfig) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	mux := http.NewServeMux()
	rt.Mount(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return rt, hs
}

func postMatch(t *testing.T, url, body string) (int, serve.V1Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/match", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.V1Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func TestRouterRoutesAcrossReplicas(t *testing.T) {
	addr1, srv1, _ := startWireServer(t, testBackend())
	addr2, srv2, _ := startWireServer(t, testBackend())
	_, hs := startRouter(t, RouterConfig{
		Replicas: []ReplicaSpec{{Addr: addr1}, {Addr: addr2}},
		Logf:     t.Logf,
	})

	for i := 0; i < 20; i++ {
		status, out := postMatch(t, hs.URL, `{"query": "indy 4"}`)
		if status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, status)
		}
		if out.Count != 1 || len(out.Results) != 1 {
			t.Fatalf("request %d: count %d, %d results", i, out.Count, len(out.Results))
		}
		r := out.Results[0]
		if r.Error != "" {
			t.Fatalf("request %d: per-item error %q", i, r.Error)
		}
		if r.Response == nil || len(r.Response.Matches) == 0 {
			t.Fatalf("request %d: no matches", i)
		}
		if got := r.Response.Matches[0].Canonical; got != "Indiana Jones and the Kingdom of the Crystal Skull" {
			t.Fatalf("request %d: top match %q", i, got)
		}
	}
	// Domainless traffic round-robins: both replicas served some share.
	s1, s2 := srv1.Stats().Requests, srv2.Stats().Requests
	if s1 == 0 || s2 == 0 {
		t.Errorf("round-robin skew: replica requests %d / %d", s1, s2)
	}
}

func TestRouterBatchAndSemanticErrors(t *testing.T) {
	addr, _, _ := startWireServer(t, testBackend())
	_, hs := startRouter(t, RouterConfig{Replicas: []ReplicaSpec{{Addr: addr}}, Logf: t.Logf})

	status, out := postMatch(t, hs.URL, `{"queries": [{"query": "madagascar 2"}, {"query": ""}]}`)
	if status != http.StatusOK {
		t.Fatalf("HTTP %d", status)
	}
	if len(out.Results) != 2 {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].Response == nil {
		t.Errorf("item 0: %+v", out.Results[0])
	}
	// An empty query is a per-item semantic error: 200, error field set —
	// same contract as hitting a replica directly.
	if out.Results[1].Error == "" {
		t.Error("item 1: empty query did not produce a per-item error")
	}

	// Request-level misuse stays 4xx.
	for name, body := range map[string]string{
		"unknown field":    `{"nope": 1}`,
		"second value":     `{"query": "indy 4"}{"query": "twilight"}`,
		"trailing garbage": `{"query": "indy 4"} garbage`,
	} {
		if status, _ := postMatch(t, hs.URL, body); status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, status)
		}
	}
}

func TestRouterAllReplicasDownIs503(t *testing.T) {
	addr, _, kill := startWireServer(t, testBackend())
	_, hs := startRouter(t, RouterConfig{
		Replicas:       []ReplicaSpec{{Addr: addr}},
		RequestTimeout: 500 * time.Millisecond,
		Logf:           t.Logf,
	})
	kill()
	status, _ := postMatch(t, hs.URL, `{"query": "indy 4"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503 when every replica is down", status)
	}
}

func TestRouterDomainAffinity(t *testing.T) {
	// Domain-pinned queries must consistently land on one replica (cache
	// affinity) while both are healthy.
	addr1, srv1, _ := startWireServer(t, testBackend())
	addr2, srv2, _ := startWireServer(t, testBackend())
	rt, err := NewRouter(RouterConfig{Replicas: []ReplicaSpec{{Addr: addr1}, {Addr: addr2}}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 8; q++ {
		query := fmt.Sprintf("query %d", q)
		var first []*replica
		for i := 0; i < 5; i++ {
			targets := rt.targetsFor(matchRequest(query, "movies"), nil)
			if len(targets) == 0 {
				t.Fatal("no targets")
			}
			if first == nil {
				first = targets
				continue
			}
			if targets[0] != first[0] {
				t.Fatalf("query %q: primary flapped between replicas", query)
			}
		}
	}
	_ = srv1
	_ = srv2
}

func TestRingDistributesAndRespectsHealth(t *testing.T) {
	r := newRing(3)
	counts := make(map[int]int)
	for i := 0; i < 3000; i++ {
		idx := r.order(fmt.Sprintf("key-%d", i), 1, func(int) bool { return true })
		counts[idx[0]]++
	}
	for rep := 0; rep < 3; rep++ {
		if counts[rep] < 300 {
			t.Errorf("replica %d got %d of 3000 keys — ring badly imbalanced", rep, counts[rep])
		}
	}
	// An unhealthy primary is walked past, and only its keys move.
	moved := 0
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := r.order(key, 1, func(int) bool { return true })[0]
		after := r.order(key, 1, func(n int) bool { return n != 0 })[0]
		if after == 0 {
			t.Fatalf("key %q routed to the unhealthy replica", key)
		}
		if before != after {
			moved++
		}
	}
	if moved != counts[0] {
		t.Errorf("%d keys moved, want exactly the unhealthy replica's %d", moved, counts[0])
	}
}
