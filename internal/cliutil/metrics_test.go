package cliutil

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"contender/internal/obs"
)

func TestServeMetricsEndpoints(t *testing.T) {
	m := obs.NewMetrics()
	m.Event(obs.Event{Kind: obs.SpanBegin, Span: obs.SpanTrainCampaign})
	m.Event(obs.Event{Kind: obs.SpanEnd, Span: obs.SpanTrainCampaign, Dur: time.Millisecond})

	q := obs.NewQuality(obs.DriftConfig{})
	q.Observe(71, 0.2)

	b := obs.NewBlame(obs.BlameConfig{})
	b.Observe(71, []int{2}, []float64{1.5})

	addr, stop, err := ServeMetrics("127.0.0.1:0", m, q, b)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	if !strings.Contains(body, `contender_spans_total{span="train.campaign"} 1`) {
		t.Errorf("/metrics missing the campaign counter:\n%s", body)
	}

	if !strings.Contains(body, `contender_quality_feedback_total{template="71"} 1`) {
		t.Errorf("/metrics missing the quality families:\n%s", body)
	}

	if !strings.Contains(body, `contender_blame_observations_total{pair="71/2"} 1`) {
		t.Errorf("/metrics missing the blame families:\n%s", body)
	}

	body, ctype = get("/quality")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/quality content type %q", ctype)
	}
	if !strings.Contains(body, `"template": 71`) || !strings.Contains(body, `"state": "healthy"`) {
		t.Errorf("/quality missing the template report:\n%s", body)
	}

	body, ctype = get("/blame")
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/blame content type %q", ctype)
	}
	if !strings.Contains(body, `"primary": 71`) || !strings.Contains(body, `"neighbor": 2`) {
		t.Errorf("/blame missing the pair report:\n%s", body)
	}

	// The campaign span above observed one histogram sample, so the
	// expvar tree carries a +Inf bucket bound; the document must still
	// be valid JSON.
	body, _ = get("/debug/vars")
	if !strings.Contains(body, "contender_metrics") {
		t.Error("/debug/vars does not publish contender_metrics")
	}
	if !json.Valid([]byte(body)) {
		t.Errorf("/debug/vars is not valid JSON:\n%s", body)
	}
	if !strings.Contains(body, `"le":"+Inf"`) {
		t.Errorf("/debug/vars does not render the infinite bucket bound as \"+Inf\":\n%s", body)
	}

	body, _ = get("/debug/pprof/cmdline")
	if len(body) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

// TestServeMetricsGracefulShutdown pins that stop() drains an in-flight
// request (the slow handler finishes and its client reads a complete
// response) instead of severing it, and that the listener stops
// accepting immediately.
func TestServeMetricsGracefulShutdown(t *testing.T) {
	m := obs.NewMetrics()
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		_, _ = io.WriteString(w, "drained-ok")
	})
	addr, stop, err := ServeMetrics("127.0.0.1:0", m, nil, nil, Mount{Pattern: "/slow", Handler: slow})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- result{body: string(body), err: err}
	}()
	<-entered

	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	// stop() must wait for the in-flight request, not return early.
	select {
	case <-stopped:
		t.Fatal("stop() returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	// New connections are refused once shutdown began.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after stop() began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("in-flight request severed: %v", r.err)
		}
		if r.body != "drained-ok" {
			t.Fatalf("in-flight response truncated: %q", r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop() never returned after drain")
	}
}

func TestServeMetricsNilAggregators(t *testing.T) {
	m := obs.NewMetrics()
	addr, stop, err := ServeMetrics("127.0.0.1:0", m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without an aggregator: %s", path, resp.Status)
		}
		return string(body)
	}

	if body := get("/quality"); !strings.Contains(body, `"templates": []`) {
		t.Errorf("/quality without an aggregator should report no templates:\n%s", body)
	}
	if body := get("/blame"); !strings.Contains(body, `"pairs": []`) {
		t.Errorf("/blame without an aggregator should report no pairs:\n%s", body)
	}
}
