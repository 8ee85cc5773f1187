package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/holmes-colocation/holmes/internal/experiments"
	"github.com/holmes-colocation/holmes/internal/telemetry"
)

// TestLiveEndpointsDuringRun is the acceptance check for the live export:
// the telemetry handler must serve /metrics and /spans over real HTTP
// while a colocation scenario is driving records into the set.
func TestLiveEndpointsDuringRun(t *testing.T) {
	set := telemetry.NewSet()
	srv := httptest.NewServer(handler(set))
	defer srv.Close()

	cfg := experiments.DefaultColocation("redis", "a", experiments.Holmes)
	cfg.WarmupNs = 300_000_000
	cfg.DurationNs = 1_200_000_000
	cfg.Telemetry = set

	done := make(chan error, 1)
	go func() {
		_, err := experiments.RunColocation(cfg)
		done <- err
	}()

	// Poll /metrics while the run is live until the daemon's tick counter
	// shows up with a nonzero value.
	deadline := time.Now().Add(60 * time.Second)
	var metricsText string
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon metrics never appeared; last /metrics:\n%s", metricsText)
		}
		metricsText = httpGet(t, srv.URL+"/metrics")
		if line := findLine(metricsText, "holmes_invocations_total "); line != "" &&
			!strings.HasSuffix(line, " 0") {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if ct := head(t, srv.URL+"/metrics"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}

	if err := <-done; err != nil {
		t.Fatalf("colocation run: %v", err)
	}

	// /debug/holmes bundles info, metrics and the span totals.
	var debug struct {
		Info       map[string]string            `json:"info"`
		Metrics    []map[string]json.RawMessage `json:"metrics"`
		SpanTotal  uint64                       `json:"span_total"`
		SpanCounts map[string]int               `json:"recent_span_counts"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/holmes")), &debug); err != nil {
		t.Fatalf("/debug/holmes did not decode: %v", err)
	}
	if debug.Info["holmes.E"] != "40" {
		t.Fatalf("info missing threshold E: %v", debug.Info)
	}
	if len(debug.Metrics) == 0 {
		t.Fatal("debug bundle has no metrics")
	}
	if debug.SpanTotal == 0 || debug.SpanCounts["MaskDecision"] == 0 {
		t.Fatalf("debug bundle span totals empty: total %d, counts %v",
			debug.SpanTotal, debug.SpanCounts)
	}

	// The kernel and cgroupfs instrumentation reported through the same
	// registry.
	if findLine(metricsText, "cgroupfs_events_total") == "" {
		t.Error("cgroupfs metrics missing from /metrics")
	}
	if findLine(metricsText, "kernel_migrations_total") == "" {
		t.Error("kernel metrics missing from /metrics")
	}

	// /spans serves the daemon's decision log as causal chains in JSON,
	// and as a schema-valid Chrome trace with ?format=chrome.
	type spanLog struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
		Spans   []struct {
			ID   uint64 `json:"id"`
			Kind string `json:"kind"`
		} `json:"spans"`
	}
	var spans spanLog
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/spans")), &spans); err != nil {
		t.Fatalf("/spans did not decode: %v", err)
	}
	if spans.Total == 0 || len(spans.Spans) == 0 {
		t.Fatal("no spans recorded by the daemon")
	}
	kinds := map[string]int{}
	for _, sp := range spans.Spans {
		kinds[sp.Kind]++
	}
	for _, want := range []string{"SiblingBorrow", "CounterSample", "VPIEstimate", "MaskDecision"} {
		if kinds[want] == 0 {
			t.Errorf("no %s spans in /spans; saw %v", want, kinds)
		}
	}

	// ?n= keeps only the newest n spans; ?kind= filters before it.
	var newest spanLog
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/spans?n=3")), &newest); err != nil {
		t.Fatal(err)
	}
	if len(newest.Spans) != 3 || newest.Spans[2].ID != spans.Spans[len(spans.Spans)-1].ID {
		t.Fatalf("/spans?n=3 = %+v, want the newest 3 of %d", newest.Spans, len(spans.Spans))
	}
	var decisions spanLog
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/spans?kind=MaskDecision&n=2")), &decisions); err != nil {
		t.Fatal(err)
	}
	if want := min(2, kinds["MaskDecision"]); len(decisions.Spans) != want {
		t.Fatalf("/spans?kind=MaskDecision&n=2 kept %d spans, want %d", len(decisions.Spans), want)
	}
	for _, sp := range decisions.Spans {
		if sp.Kind != "MaskDecision" {
			t.Fatalf("kind filter leaked %q", sp.Kind)
		}
	}

	chrome := httpGet(t, srv.URL+"/spans?format=chrome")
	if err := telemetry.ValidateChromeTrace([]byte(chrome)); err != nil {
		t.Fatalf("/spans?format=chrome fails schema check: %v", err)
	}

	// /timeline renders the same spans as an indented causal tree.
	timeline := httpGet(t, srv.URL+"/timeline")
	if !strings.Contains(timeline, "CounterSample") {
		t.Fatalf("/timeline has no decision chain:\n%.400s", timeline)
	}
}

// TestPprofBesideTelemetry checks that the daemon's server exposes the Go
// runtime profiles next to the telemetry endpoints without shadowing them.
func TestPprofBesideTelemetry(t *testing.T) {
	srv := httptest.NewServer(handler(telemetry.NewSet()))
	defer srv.Close()
	if index := httpGet(t, srv.URL+"/debug/pprof/"); !strings.Contains(index, "goroutine") {
		t.Fatalf("/debug/pprof/ index lists no goroutine profile:\n%.400s", index)
	}
	httpGet(t, srv.URL+"/debug/pprof/heap?debug=1")
	if ct := head(t, srv.URL+"/metrics"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q behind the pprof mux", ct)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func head(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.Header.Get("Content-Type")
}

// findLine returns the first exposition line starting with prefix.
func findLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestHolmesSpecFlags pins the -E and -interval checks: the daemon
// override reads zero as the default and counts whole microseconds, so a
// flag value it cannot carry is rejected instead of running the default.
func TestHolmesSpecFlags(t *testing.T) {
	cases := []struct {
		name     string
		e        float64
		interval time.Duration
		wantUs   int64 // 0: rejected
	}{
		{"defaults", 40, 100 * time.Microsecond, 100},
		{"paper interval", 60, 50 * time.Microsecond, 50},
		{"millisecond interval", 40, 10 * time.Millisecond, 10_000},
		{"zero E", 0, 100 * time.Microsecond, 0},
		{"negative E", -5, 100 * time.Microsecond, 0},
		{"zero interval", 40, 0, 0},
		{"negative interval", 40, -100 * time.Microsecond, 0},
		{"sub-microsecond interval", 40, 500 * time.Nanosecond, 0},
		{"fractional microseconds", 40, 1500 * time.Nanosecond, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := holmesSpec(tc.e, tc.interval)
			if tc.wantUs == 0 {
				if err == nil {
					t.Fatalf("accepted -E %v -interval %v as %+v", tc.e, tc.interval, h)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h.E != tc.e || h.IntervalUs != tc.wantUs {
				t.Fatalf("got %+v, want E %v, %d us", h, tc.e, tc.wantUs)
			}
		})
	}
}
