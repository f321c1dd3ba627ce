package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"upmgo"
)

// testRequest is the smallest real sweep: Figure 1 on BT at class S,
// Threads 1 (exactly reproducible, so byte-comparisons are valid).
var testRequest = upmgo.SweepRequest{
	Kind: upmgo.KindFigure1,
	Options: upmgo.SweepOptions{
		Class: upmgo.ClassS, Benches: []string{"BT"}, Seed: 42, Threads: 1,
	},
}

// startServer boots a server (with worker) over a fresh store directory
// and returns it with its HTTP test frontend.
func startServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	st, err := upmgo.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(2, 4, st, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go s.work(ctx)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		<-s.done
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (job, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return j, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	var j job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// waitDone polls a job until it leaves the queue and the pool.
func waitDone(t *testing.T, ts *httptest.Server, id string) job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j := getJob(t, ts, id)
		if j.State == jobDone || j.State == jobFailed {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle is the acceptance path: submit → poll → done with a
// result identical to the in-process computation → fetch one cell from
// /v1/cells and byte-compare it against an independently encoded record.
func TestJobLifecycle(t *testing.T) {
	_, ts := startServer(t)
	blob, err := json.Marshal(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	j, resp := postJob(t, ts, string(blob))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Errorf("Location = %q", loc)
	}
	if len(j.Cells) != 8 {
		t.Fatalf("figure1/BT enumerated %d cells, want 8", len(j.Cells))
	}

	final := waitDone(t, ts, j.ID)
	if final.State != jobDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.CellsDone != len(final.Cells) {
		t.Errorf("progress says %d/%d cells", final.CellsDone, len(final.Cells))
	}

	// The served result must match a direct, storeless, in-process sweep.
	direct, err := upmgo.Sweep(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || !reflect.DeepEqual(*final.Result, direct) {
		t.Error("job result differs from direct Sweep of the same request")
	}

	// Fetch one cell and byte-compare it against the record encoding of
	// the direct computation: daemon-served bytes are bit-identical to
	// what any process computes for the cell.
	specs, err := upmgo.SweepSpecs(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	for i, ref := range final.Cells {
		cresp, err := http.Get(ts.URL + "/v1/cells/" + ref.Address)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(cresp.Body)
		cresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/cells/%s: %s", ref.Address, cresp.Status)
		}
		key, ok := specs[i].Key()
		if !ok {
			t.Fatal("spec not memoizable")
		}
		want, err := upmgo.EncodeStoreRecord(key, ref.Bench, direct.Cells[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("cell %s served bytes differ from the direct computation's encoding", ref.Label)
		}
	}
}

// TestWarmStartSecondJob: the same request twice simulates nothing the
// second time (RAM + store hits only), and returns the identical result.
func TestWarmStartSecondJob(t *testing.T) {
	s, ts := startServer(t)
	blob, _ := json.Marshal(testRequest)
	j1, _ := postJob(t, ts, string(blob))
	first := waitDone(t, ts, j1.ID)
	stats := s.cache.Stats()
	if stats.Misses == 0 || stats.StorePuts != stats.Misses {
		t.Fatalf("cold job stats look wrong: %+v", stats)
	}
	j2, _ := postJob(t, ts, string(blob))
	second := waitDone(t, ts, j2.ID)
	if after := s.cache.Stats(); after.Misses != stats.Misses {
		t.Errorf("second job simulated %d new cells, want 0", after.Misses-stats.Misses)
	}
	if !reflect.DeepEqual(first.Result, second.Result) {
		t.Error("second job's result differs from the first")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := startServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"unknown kind", `{"kind":"figure9","options":{}}`},
		{"not json", `not json`},
		{"unknown field", `{"kind":"figure1","options":{},"surprise":1}`},
		{"bad class", `{"kind":"figure1","options":{"class":"Z"}}`},
	} {
		if _, resp := postJob(t, ts, tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400", tc.name, resp.Status)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/job-999"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: got %s, want 404", resp.Status)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/cells/" + strings.Repeat("0", 64)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing cell: got %s, want 404", resp.Status)
		}
	}
}

// TestQueueFullAnswers503: with no worker draining the queue, the
// (queueCap+1)-th submission is rejected with 503 and does not appear in
// the job list.
func TestQueueFullAnswers503(t *testing.T) {
	s := newServer(1, 2, nil, nil) // worker never started
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	blob, _ := json.Marshal(testRequest)
	for i := 0; i < 2; i++ {
		if _, resp := postJob(t, ts, string(blob)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %s", i, resp.Status)
		}
	}
	_, resp := postJob(t, ts, string(blob))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission: got %s, want 503", resp.Status)
	}
	list, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var body struct {
		Jobs []job `json:"jobs"`
	}
	if err := json.NewDecoder(list.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Jobs) != 2 {
		t.Errorf("job list has %d entries, want the 2 accepted", len(body.Jobs))
	}
}

// TestDrainFailsQueuedJobs: cancelling the worker context fails
// still-queued jobs fast and closes the drain barrier.
func TestDrainFailsQueuedJobs(t *testing.T) {
	s := newServer(1, 4, nil, nil)
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	blob, _ := json.Marshal(testRequest)
	j, _ := postJob(t, ts, string(blob))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-cancelled: the worker must fail everything queued
	go s.work(ctx)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	if got := getJob(t, ts, j.ID); got.State != jobFailed || !strings.Contains(got.Error, "draining") {
		t.Errorf("queued job after drain: state %s, error %q", got.State, got.Error)
	}
}

// TestMetricsEndpoint: the daemon serves the shared sweep gauges plus
// its own job-state family on /metrics.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startServer(t)
	blob, _ := json.Marshal(testRequest)
	j, _ := postJob(t, ts, string(blob))
	waitDone(t, ts, j.ID)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`upmgo_sweepd_jobs{state="done"} 1`,
		"upmgo_sweep_cells_done",
		"upmgo_sweep_cells_stored",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCellsSharedWithCLIStore: a store directory populated by one
// process (standing in for `sweep -store`) is served by the daemon
// without re-running anything — no worker involved at all.
func TestCellsSharedWithCLIStore(t *testing.T) {
	dir := t.TempDir()
	writer, err := upmgo.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := upmgo.Sweep(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := upmgo.SweepSpecs(testRequest)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := specs[0].Key()
	if !ok {
		t.Fatal("spec not memoizable")
	}
	if err := writer.Put(key, specs[0].Bench, direct.Cells[0].Result); err != nil {
		t.Fatal(err)
	}

	reader, err := upmgo.OpenResultStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(1, 1, reader, nil) // no worker: serving is read-only
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	resp, err := http.Get(fmt.Sprintf("%s/v1/cells/%s", ts.URL, upmgo.StoreAddress(key)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cells: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := upmgo.EncodeStoreRecord(key, specs[0].Bench, direct.Cells[0].Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("daemon served different bytes than the CLI-written record")
	}
}

// steadyCGAddresses are the store addresses `sweep -fig 1 -class S
// -benches CG -threads 1 -steady -iters 12 -store dir` writes (seed 42 is
// the CLI default): the eight Figure 1 CG cells, keyed as extrapolating
// steady runs. Class S CG's default 4 iterations end on the detection
// point, so the request asks for 12 to leave a tail.
var steadyCGAddresses = []string{
	"384160660c23b13058826a57a113e5e3176c6fad89200f809f157a1828d17cf6",
	"51e74dd334499d44f9422888f305d10c92453c024ccfb4b67be5867707c1c8e5",
	"6141e99e8a876bdab40ba7a429e56634370fd6ce5fa9a235394d2988c712104d",
	"86c81e0a431c50c0e2f63fb705e35487136cd2034e6b5d42ee69e0bcb3a67f01",
	"c7a08a818b6aa5fcefad94dce815fc59880680def7a790a049fc01bfd54b6bcf",
	"c93b7e1b6c6fe05c1e27ff9210b62bacf526e421d9fd2a72e39a3f964e9aa120",
	"cdeec8e15002e5e65d8f9a615cbebb8eb1e41f0647a73f7883095515af2abf51",
	"efa24a89bec0e19cf4c339a6550f6bc541c492615d5053f726821ff530655c8b",
}

// TestSteadyJobExtrapolates: "steady": true alone is a complete steady
// request — every cell fast-forwards its tail, and the cells land at the
// same store addresses the CLI's -steady writes, so daemon and CLI share
// one store.
func TestSteadyJobExtrapolates(t *testing.T) {
	_, ts := startServer(t)
	j, resp := postJob(t, ts,
		`{"kind":"figure1","options":{"class":"S","benches":["CG"],"threads":1,"iterations":12,"seed":42,"steady":true}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s", resp.Status)
	}
	final := waitDone(t, ts, j.ID)
	if final.State != jobDone || final.Result == nil {
		t.Fatalf("job failed: %s", final.Error)
	}
	for _, c := range final.Result.Cells {
		if c.Result.ExtrapolatedIters == 0 {
			t.Errorf("cell %s: steady job did not extrapolate (steady_at %d)", c.Label, c.Result.SteadyAt)
		}
	}
	var got []string
	for _, ref := range final.Cells {
		got = append(got, ref.Address)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, steadyCGAddresses) {
		t.Errorf("steady job addresses differ from the CLI's -steady store:\n got %v\nwant %v", got, steadyCGAddresses)
	}
}

// TestRemovedOptionsRejected: the retired steady-state toggles are not
// silently ignored — a request carrying one is a 400 that names it.
func TestRemovedOptionsRejected(t *testing.T) {
	_, ts := startServer(t)
	for _, field := range []string{
		`"extrapolate":false`, `"period_k":1`, `"no_campaign_ff":true`, `"resident_elide":true`,
	} {
		body := `{"kind":"figure1","options":{"class":"S","steady":true,` + field + `}}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %s, want 400", field, resp.Status)
		}
		name := field[:strings.Index(field, ":")]
		if !strings.Contains(string(msg), strings.ReplaceAll(name, `"`, `\"`)) {
			t.Errorf("%s: error %s does not name the field", field, msg)
		}
	}
}

// TestSubmitOversizedBody: a POST /v1/jobs body past maxRequestBytes is
// refused with 413 and never enqueued; a normal request still goes
// through afterwards.
func TestSubmitOversizedBody(t *testing.T) {
	s, ts := startServer(t)
	body := `{"kind":"figure1","options":{"benches":["` + strings.Repeat("B", maxRequestBytes) + `"]}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %s %s, want 413", resp.Status, msg)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("oversized body enqueued %d jobs", n)
	}
	blob, _ := json.Marshal(testRequest)
	if _, resp := postJob(t, ts, string(blob)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal request after an oversized one: %s", resp.Status)
	}
}
