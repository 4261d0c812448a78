package replica_test

// End-to-end replication tests: a real primary served by httpapi over
// httptest, real replicas bootstrapping and tailing it over HTTP.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"planar/internal/core"
	"planar/internal/httpapi"
	"planar/internal/replica"
	"planar/internal/replog"
	"planar/internal/service"
	"planar/internal/vecmath"
)

const dim = 4

// newPrimary opens a store and serves it over httptest.
func newPrimary(t *testing.T, shards int) (*service.DB, *httptest.Server) {
	t.Helper()
	db, err := service.Open(filepath.Join(t.TempDir(), "primary"), service.Options{Dim: dim, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	api, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return db, srv
}

// churn applies n random mutations (weighted toward appends) and
// returns the ids still live.
func churn(t *testing.T, db *service.DB, rng *rand.Rand, n int, live []uint32) []uint32 {
	t.Helper()
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.Float64()*20 - 10
		}
		return v
	}
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 7 || len(live) == 0:
			id, err := db.Append(vec())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		case op < 9:
			if err := db.Update(live[rng.Intn(len(live))], vec()); err != nil {
				t.Fatal(err)
			}
		default:
			k := rng.Intn(len(live))
			if err := db.Remove(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
	}
	return live
}

// waitApplied blocks until the replica has applied at least lsn.
func waitApplied(t *testing.T, rep *replica.Replica, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if st := rep.Status(); st.LastApplied >= lsn {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica stuck at %+v, want LSN %d", rep.Status(), lsn)
}

// assertIdentical runs the same query/count/top-k workload against
// both stores and requires exactly equal answers.
func assertIdentical(t *testing.T, primary, rep *service.DB, rng *rand.Rand) {
	t.Helper()
	if p, r := primary.Len(), rep.Len(); p != r {
		t.Fatalf("primary has %d points, replica %d", p, r)
	}
	for i := 0; i < 20; i++ {
		a := make([]float64, dim)
		for j := range a {
			a[j] = rng.Float64()*2 - 1
		}
		q := core.Query{A: a, B: rng.Float64() * 10, Op: core.LE}
		pids, _, err := primary.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rids, _, err := rep.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pids, rids) {
			t.Fatalf("query %d: primary %v, replica %v", i, pids, rids)
		}
		pc, _, err := primary.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		rc, _, err := rep.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if pc != rc {
			t.Fatalf("count %d: primary %d, replica %d", i, pc, rc)
		}
		pk, _, err := primary.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rk, _, err := rep.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pk, rk) {
			t.Fatalf("topk %d: primary %v, replica %v", i, pk, rk)
		}
	}
}

func TestReplicationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db, srv := newPrimary(t, 3)
	if _, err := db.AddNormal([]float64{1, 0.5, 0.25, 2}, vecmath.FirstOctant(dim)); err != nil {
		t.Fatal(err)
	}
	live := churn(t, db, rng, 400, nil)

	rep, err := replica.Start(replica.Options{Primary: srv.URL, Dir: filepath.Join(t.TempDir(), "replica"), PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	waitApplied(t, rep, db.LastLSN())

	// Keep mutating after the bootstrap so the stream path is covered.
	churn(t, db, rng, 400, live)
	waitApplied(t, rep, db.LastLSN())
	assertIdentical(t, db, rep.DB(), rng)

	if st := rep.Status(); st.Bootstraps != 1 {
		t.Fatalf("expected exactly one bootstrap, got %+v", st)
	}
	if ok, reason := rep.Ready(); !ok {
		t.Fatalf("caught-up replica not ready: %s", reason)
	}
	if _, err := rep.DB().Append(make([]float64, dim)); err != service.ErrReadOnly {
		t.Fatalf("replica accepted a direct write: %v", err)
	}
}

func TestReplicaKillAndReconnect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db, srv := newPrimary(t, 2)
	live := churn(t, db, rng, 200, nil)

	dir := filepath.Join(t.TempDir(), "replica")
	rep, err := replica.Start(replica.Options{Primary: srv.URL, Dir: dir, PollWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, rep, db.LastLSN())

	// Sever the long-poll mid-flight; the loop must reconnect and
	// resume from its applied LSN without a second bootstrap.
	deadline := time.Now().Add(10 * time.Second)
	for rep.Status().Reconnects == 0 && time.Now().Before(deadline) {
		srv.CloseClientConnections()
		time.Sleep(10 * time.Millisecond)
	}
	if rep.Status().Reconnects == 0 {
		t.Fatal("never observed a reconnect")
	}
	live = churn(t, db, rng, 200, live)
	waitApplied(t, rep, db.LastLSN())
	assertIdentical(t, db, rep.DB(), rng)
	if st := rep.Status(); st.Bootstraps != 1 {
		t.Fatalf("reconnect re-bootstrapped: %+v", st)
	}
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart on the same directory: the journaled LSNs are the
	// cursor, so catch-up resumes with zero bootstraps.
	churn(t, db, rng, 100, live)
	rep2, err := replica.Start(replica.Options{Primary: srv.URL, Dir: dir, PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep2.Close() })
	waitApplied(t, rep2, db.LastLSN())
	assertIdentical(t, db, rep2.DB(), rng)
	if st := rep2.Status(); st.Bootstraps != 0 {
		t.Fatalf("restart bootstrapped instead of resuming: %+v", st)
	}
}

func TestReplicaTooOldRebootstraps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db, srv := newPrimary(t, 1)
	churn(t, db, rng, 50, nil)

	dir := filepath.Join(t.TempDir(), "replica")
	rep, err := replica.Start(replica.Options{Primary: srv.URL, Dir: dir, PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitApplied(t, rep, db.LastLSN())
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// While the replica is down, advance the primary past its ring and
	// checkpoint: the WAL truncates, so the replica's cursor is gone
	// from both the ring and the disk and only a fresh snapshot can help.
	churn(t, db, rng, replog.DefaultRingSize+100, nil)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, db, rng, 20, nil)

	rep2, err := replica.Start(replica.Options{Primary: srv.URL, Dir: dir, PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep2.Close() })
	waitApplied(t, rep2, db.LastLSN())
	assertIdentical(t, db, rep2.DB(), rng)
	if st := rep2.Status(); st.Bootstraps != 1 {
		t.Fatalf("expected exactly one re-bootstrap, got %+v", st)
	}
}

// replicaServer serves a replica through httpapi with the write guard.
func replicaServer(t *testing.T, rep *replica.Replica, primaryURL string, proxy bool) *httptest.Server {
	t.Helper()
	api, err := httpapi.New(nil, httpapi.WithReplica(rep, primaryURL, proxy))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestReplicaHTTPGuardBarrierAndPromote(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db, srv := newPrimary(t, 2)
	churn(t, db, rng, 100, nil)

	rep, err := replica.Start(replica.Options{Primary: srv.URL, Dir: filepath.Join(t.TempDir(), "replica"), PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	rsrv := replicaServer(t, rep, srv.URL, false)
	waitApplied(t, rep, db.LastLSN())

	// Writes bounce with the primary's address.
	resp, body := postJSON(t, rsrv.URL+"/v1/points", `{"vec":[1,2,3,4]}`)
	if resp.StatusCode != http.StatusForbidden || !bytes.Contains(body, []byte(srv.URL)) {
		t.Fatalf("write on replica: %d %s", resp.StatusCode, body)
	}

	// Monotonic read: write upstream, then query the replica with the
	// primary's LSN as the barrier — the answer must include the write.
	id, err := db.Append([]float64{9, 9, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	lsn := db.LastLSN()
	req, _ := http.NewRequest(http.MethodPost, rsrv.URL+"/v1/query", bytes.NewReader([]byte(`{"a":[1,1,1,1],"b":100,"op":"<=","k":0}`)))
	req.Header.Set("X-Planar-Min-LSN", fmt.Sprintf("%d", lsn))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		IDs []uint32 `json:"ids"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("barrier query: %d", resp2.StatusCode)
	}
	found := false
	for _, got := range qr.IDs {
		found = found || got == id
	}
	if !found {
		t.Fatalf("barrier read at LSN %d missed id %d (got %d ids)", lsn, id, len(qr.IDs))
	}
	if got := resp2.Header.Get("X-Planar-LSN"); got == "" || got == "0" {
		t.Fatalf("missing X-Planar-LSN header: %q", got)
	}

	// An unreachable barrier times out with 504.
	req2, _ := http.NewRequest(http.MethodPost, rsrv.URL+"/v1/query", bytes.NewReader([]byte(`{"a":[1,1,1,1],"b":100,"op":"<="}`)))
	req2.Header.Set("X-Planar-Min-LSN", fmt.Sprintf("%d", lsn+1000))
	req2.Header.Set("X-Planar-Wait-Ms", "50")
	resp3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unreachable barrier answered %d, want 504", resp3.StatusCode)
	}

	// /readyz reflects the replica, /healthz is plain liveness.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		hr, err := http.Get(rsrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != want {
			t.Fatalf("%s: %d, want %d", path, hr.StatusCode, want)
		}
	}

	// Failover: promote over HTTP, then the replica takes writes.
	waitApplied(t, rep, db.LastLSN())
	resp4, body4 := postJSON(t, rsrv.URL+"/v1/replication/promote", "")
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("promote: %d %s", resp4.StatusCode, body4)
	}
	resp5, body5 := postJSON(t, rsrv.URL+"/v1/points", `{"vec":[1,2,3,4]}`)
	if resp5.StatusCode != http.StatusOK {
		t.Fatalf("write after promote: %d %s", resp5.StatusCode, body5)
	}
}

func TestReplicaProxiesWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db, srv := newPrimary(t, 2)
	churn(t, db, rng, 50, nil)

	rep, err := replica.Start(replica.Options{Primary: srv.URL, Dir: filepath.Join(t.TempDir(), "replica"), PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	rsrv := replicaServer(t, rep, srv.URL, true)
	waitApplied(t, rep, db.LastLSN())

	before := db.LastLSN()
	resp, body := postJSON(t, rsrv.URL+"/v1/points", `{"vec":[5,6,7,8]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied write: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Planar-Proxied") != "primary" {
		t.Fatal("missing proxy marker header")
	}
	if db.LastLSN() != before+1 {
		t.Fatalf("primary LSN %d, want %d", db.LastLSN(), before+1)
	}
	waitApplied(t, rep, db.LastLSN())
	assertIdentical(t, db, rep.DB(), rng)
}
