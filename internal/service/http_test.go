package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func awaitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPEndToEnd drives the full API surface the CI smoke test
// exercises: health, workload catalog, two concurrent submissions,
// status polling, the event stream, replay, and stats.
func TestHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL

	if code := getJSON(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var workloads []WorkloadInfo
	if code := getJSON(t, base+"/v1/workloads", &workloads); code != http.StatusOK || len(workloads) == 0 {
		t.Fatalf("workloads: code %d, %d entries", code, len(workloads))
	}

	// Two concurrent identical-topology jobs: the second must reuse the
	// first's routing tables.
	spec := `{"workload":"stencil","ranks":16,"verify":true}`
	var a, b JobStatus
	if code := postJSON(t, base+"/v1/jobs", spec, &a); code != http.StatusAccepted {
		t.Fatalf("submit a: %d", code)
	}
	if code := postJSON(t, base+"/v1/jobs", spec, &b); code != http.StatusAccepted {
		t.Fatalf("submit b: %d", code)
	}
	stA, stB := awaitDone(t, base, a.ID), awaitDone(t, base, b.ID)
	if stA.State != StateDone || stB.State != StateDone {
		t.Fatalf("jobs ended %s/%s", stA.State, stB.State)
	}
	if stA.Result.OutputDigest != stB.Result.OutputDigest {
		t.Fatalf("identical jobs diverged: %s vs %s", stA.Result.OutputDigest, stB.Result.OutputDigest)
	}
	var stats Stats
	getJSON(t, base+"/v1/stats", &stats)
	if stats.RouteCache.Hits < 1 {
		t.Fatalf("no route-cache hit after identical jobs: %+v", stats.RouteCache)
	}

	// Event stream: the replayed log of a finished job ends in a
	// completed event and terminates the stream.
	resp, err := http.Get(base + "/v1/jobs/" + a.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	resp.Body.Close()
	if len(kinds) < 3 || kinds[0] != "queued" || kinds[len(kinds)-1] != "completed" {
		t.Fatalf("event kinds = %v", kinds)
	}

	// Replay through the API and check the service's verdict.
	var rep JobStatus
	if code := postJSON(t, base+"/v1/jobs/"+a.ID+"/replay", "", &rep); code != http.StatusAccepted {
		t.Fatalf("replay: %d", code)
	}
	repSt := awaitDone(t, base, rep.ID)
	if repSt.State != StateDone || repSt.ReplayMatch == nil || !*repSt.ReplayMatch {
		t.Fatalf("replay not verified bit-identical: %+v", repSt)
	}

	var listing []JobStatus
	if code := getJSON(t, base+"/v1/jobs", &listing); code != http.StatusOK || len(listing) != 3 {
		t.Fatalf("jobs listing: code %d, %d entries, want 3", code, len(listing))
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL

	check := func(code int, wantCode int, body map[string]string, wantKind string) {
		t.Helper()
		if code != wantCode {
			t.Fatalf("status = %d, want %d (%v)", code, wantCode, body)
		}
		if body["kind"] != wantKind {
			t.Fatalf("kind = %q, want %q", body["kind"], wantKind)
		}
	}

	var body map[string]string
	code := postJSON(t, base+"/v1/jobs", `{"workload":"nope","ranks":4}`, &body)
	check(code, http.StatusBadRequest, body, "invalid-spec")

	body = nil
	code = postJSON(t, base+"/v1/jobs", `{not json`, &body)
	check(code, http.StatusBadRequest, body, "invalid-spec")

	body = nil
	code = postJSON(t, base+"/v1/jobs", `{"workload":"bcast","ranks":4,"bogus_field":1}`, &body)
	check(code, http.StatusBadRequest, body, "invalid-spec")

	// The removed fixed-window scheduler and the dense test oracle are not
	// service options.
	for _, sched := range []string{"shard", "dense"} {
		body = nil
		code = postJSON(t, base+"/v1/jobs", `{"workload":"bcast","ranks":4,"scheduler":"`+sched+`"}`, &body)
		check(code, http.StatusBadRequest, body, "invalid-spec")
	}

	body = nil
	code = postJSON(t, base+"/v1/jobs", `{"workload":"bcast","ranks":4,"shards":2}`, &body)
	check(code, http.StatusBadRequest, body, "invalid-spec")
	if msg := body["error"]; !strings.Contains(msg, `"shard-adaptive"`) || strings.Contains(msg, `"shard"`) {
		t.Fatalf("shards-without-scheduler message %q must name only \"shard-adaptive\"", msg)
	}

	body = nil
	code = getJSON(t, base+"/v1/jobs/j9999", &body)
	check(code, http.StatusNotFound, body, "not-found")

	body = nil
	code = postJSON(t, base+"/v1/jobs/j9999/replay", "", &body)
	check(code, http.StatusNotFound, body, "not-found")
}

// TestHTTPRemovedTransportKey pins that the deleted "transport" key of
// the job document fails loudly as an unknown field instead of running
// the job with the key silently dropped.
func TestHTTPRemovedTransportKey(t *testing.T) {
	svc, ts := newTestServer(t)
	var body map[string]string
	code := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"incast","ranks":4,"transport":"sender-driven"}`, &body)
	if code != http.StatusBadRequest || body["kind"] != "invalid-spec" {
		t.Fatalf("status %d, kind %q; want 400 invalid-spec (%v)", code, body["kind"], body)
	}
	if msg := body["error"]; !strings.Contains(msg, `unknown field "transport"`) {
		t.Fatalf("error %q does not name the unknown field", msg)
	}
	if jobs := svc.Stats().Jobs; len(jobs) != 0 {
		t.Fatalf("rejected submission created jobs: %v", jobs)
	}
}

// TestHTTPOverload maps queue exhaustion onto 429.
func TestHTTPOverload(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	long := `{"workload":"pingpong","ranks":4,"size":20000}`
	var first JobStatus
	if code := postJSON(t, ts.URL+"/v1/jobs", long, &first); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	job, err := svc.Job(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, job)
	if code := postJSON(t, ts.URL+"/v1/jobs", long, nil); code != http.StatusAccepted {
		t.Fatalf("second submit: %d", code)
	}
	var body map[string]string
	code := postJSON(t, ts.URL+"/v1/jobs", long, &body)
	if code != http.StatusTooManyRequests || body["kind"] != "overloaded" {
		t.Fatalf("third submit: code %d, body %v; want 429 overloaded", code, body)
	}
}
