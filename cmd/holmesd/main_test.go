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
// the telemetry handler must serve /metrics and /events over real HTTP
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

	// After the run: the decision log must decode and contain the batch
	// discoveries plus at least one sibling decision.
	var events struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Type   string  `json:"type"`
			TimeNs int64   `json:"time_ns"`
			CPU    int     `json:"cpu"`
			VPI    float64 `json:"vpi"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/events")), &events); err != nil {
		t.Fatalf("/events did not decode: %v", err)
	}
	if events.Total == 0 || len(events.Events) == 0 {
		t.Fatal("no decision events recorded")
	}
	types := map[string]int{}
	for _, ev := range events.Events {
		types[ev.Type]++
	}
	if types["BatchDiscovered"] == 0 {
		t.Fatalf("no BatchDiscovered events; saw %v", types)
	}
	if types["SiblingRevoked"]+types["SiblingGranted"] == 0 {
		t.Fatalf("no sibling decisions; saw %v", types)
	}

	// Type filter works.
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/events?type=BatchDiscovered")), &events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events.Events {
		if ev.Type != "BatchDiscovered" {
			t.Fatalf("filter leaked %q", ev.Type)
		}
	}

	// /debug/holmes bundles info + metrics.
	var debug struct {
		Info    map[string]string            `json:"info"`
		Metrics []map[string]json.RawMessage `json:"metrics"`
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

	// The kernel and cgroupfs instrumentation reported through the same
	// registry.
	if findLine(metricsText, "cgroupfs_events_total") == "" {
		t.Error("cgroupfs metrics missing from /metrics")
	}
	if findLine(metricsText, "kernel_migrations_total") == "" {
		t.Error("kernel metrics missing from /metrics")
	}

	// /spans serves the daemon's causal decision chains as JSON, and as a
	// schema-valid Chrome trace with ?format=chrome.
	var spans struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
		Spans   []struct {
			Kind string `json:"kind"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/spans")), &spans); err != nil {
		t.Fatalf("/spans did not decode: %v", err)
	}
	if spans.Total == 0 || len(spans.Spans) == 0 {
		t.Fatal("no spans recorded by the daemon")
	}
	kinds := map[string]bool{}
	for _, sp := range spans.Spans {
		kinds[sp.Kind] = true
	}
	for _, want := range []string{"CounterSample", "VPIEstimate", "MaskDecision"} {
		if !kinds[want] {
			t.Errorf("no %s spans in /spans; saw %v", want, kinds)
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

	// /alerts decodes even with no burn engine attached (empty log).
	var alerts struct {
		Firing int     `json:"firing"`
		Alerts []Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/alerts")), &alerts); err != nil {
		t.Fatalf("/alerts did not decode: %v", err)
	}
	if len(alerts.Alerts) != 0 {
		t.Fatalf("single-daemon run has no burn engine, yet /alerts has %d entries",
			len(alerts.Alerts))
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

// Alert mirrors telemetry.Alert for decoding /alerts.
type Alert = telemetry.Alert

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
