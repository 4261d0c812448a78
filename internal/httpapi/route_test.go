package httpapi

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// nanos masks the stage timings of a reply, the one part of it that
// differs from run to run.
var nanos = regexp.MustCompile(`"(planNanos|execNanos)":[0-9]+`)

// TestRouteTable pins what every route answers: its own method, a
// wrong one (405 and the Allow header), HEAD on a GET route, unknown
// paths (404), the point id route's edges, and paths that are not in
// canonical form (a 301 to the cleaned path).
func TestRouteTable(t *testing.T) {
	ts, db := testServer(t)
	if _, err := db.AddNormal([]float64{1, 2}, []int8{1, 1}); err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]float64{{1, 1}, {5, 5}, {9, 1}} {
		if _, err := db.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	client := ts.Client()
	client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }

	const (
		notFound   = "404 page not found\n"
		notAllowed = "Method Not Allowed\n"
		text       = "text/plain; charset=utf-8"
		json       = "application/json"
		binary     = "application/octet-stream"
		query      = `{"a":[1,1],"b":7,"op":"<="}`
		stats      = `{"n":3,"accepted":1,"verified":1,"matched":0,"rejected":1,"prunedFraction":0.6666666666666666,"fellBack":false,"indexUsed":0,"planNanos":0,"execNanos":0}`
	)
	for _, c := range []struct {
		method, path, body string
		status             int
		ctype, allow       string
		// want is the whole reply with its stage timings masked;
		// with prefix set, its beginning. HEAD replies carry no body.
		want     string
		prefix   bool
		location string
	}{
		// Every route with its own method.
		{method: "POST", path: "/v1/query", body: query, status: 200, ctype: json,
			want: `{"ids":[0],"stats":` + stats + "}\n"},
		{method: "POST", path: "/v1/query/batch", body: `{"a":[1,1],"bs":[7],"op":"<="}`, status: 200, ctype: json,
			want: `{"queries":[{"b":7,"ids":[0],"stats":` + stats + "}]}\n"},
		{method: "POST", path: "/v1/topk", body: `{"a":[1,1],"b":7,"op":"<=","k":1}`, status: 200, ctype: json,
			want: `{"results":[{"id":0,"distance":`, prefix: true},
		{method: "POST", path: "/v1/count", body: query, status: 200, ctype: json,
			want: `{"bounds":{"hi":`, prefix: true},
		{method: "POST", path: "/v1/explain", body: query, status: 200, ctype: json,
			want: `{"accepted":`, prefix: true},
		{method: "POST", path: "/v1/points", body: `{"vec":[2,2]}`, status: 200, ctype: json, want: "{\"id\":3}\n"},
		{method: "PUT", path: "/v1/points/3", body: `{"vec":[3,3]}`, status: 200, ctype: json, want: "{\"ok\":true}\n"},
		{method: "DELETE", path: "/v1/points/3", status: 200, ctype: json, want: "{\"ok\":true}\n"},
		{method: "POST", path: "/v1/indexes", body: `{"normal":[2,1]}`, status: 200, ctype: json, want: "{\"added\":true}\n"},
		{method: "POST", path: "/v1/checkpoint", status: 200, ctype: json, want: "{\"ok\":true}\n"},
		{method: "GET", path: "/v1/stats", status: 200, ctype: json, want: `{"dim":2,`, prefix: true},
		{method: "GET", path: "/v1/replication/snapshot", status: 200, ctype: binary},
		{method: "GET", path: "/v1/replication/stream?from=1", status: 200, ctype: binary},
		{method: "GET", path: "/v1/replication/status", status: 200, ctype: json, want: `{"lsn":`, prefix: true},
		{method: "POST", path: "/v1/replication/promote", status: 400, ctype: json, want: "{\"error\":\"not a replica\"}\n"},
		{method: "GET", path: "/healthz", status: 200, ctype: json, want: "{\"ok\":true}\n"},
		{method: "GET", path: "/readyz", status: 200, ctype: json, want: `{"lsn":`, prefix: true},

		// HEAD on each GET route answers as GET does, without a body.
		{method: "HEAD", path: "/v1/stats", status: 200, ctype: json},
		{method: "HEAD", path: "/v1/replication/snapshot", status: 200, ctype: binary},
		{method: "HEAD", path: "/v1/replication/stream?from=1", status: 200, ctype: binary},
		{method: "HEAD", path: "/v1/replication/status", status: 200, ctype: json},
		{method: "HEAD", path: "/healthz", status: 200, ctype: json},
		{method: "HEAD", path: "/readyz", status: 200, ctype: json},

		// Every route with a wrong method.
		{method: "GET", path: "/v1/query", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "PUT", path: "/v1/query/batch", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "GET", path: "/v1/topk", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "DELETE", path: "/v1/count", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "GET", path: "/v1/explain", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "GET", path: "/v1/points", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "GET", path: "/v1/points/1", status: 405, ctype: text, allow: "DELETE, PUT", want: notAllowed},
		{method: "POST", path: "/v1/points/1", status: 405, ctype: text, allow: "DELETE, PUT", want: notAllowed},
		{method: "GET", path: "/v1/indexes", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "GET", path: "/v1/checkpoint", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "POST", path: "/v1/stats", status: 405, ctype: text, allow: "GET, HEAD", want: notAllowed},
		{method: "PUT", path: "/v1/replication/snapshot", status: 405, ctype: text, allow: "GET, HEAD", want: notAllowed},
		{method: "POST", path: "/v1/replication/stream", status: 405, ctype: text, allow: "GET, HEAD", want: notAllowed},
		{method: "DELETE", path: "/v1/replication/status", status: 405, ctype: text, allow: "GET, HEAD", want: notAllowed},
		{method: "GET", path: "/v1/replication/promote", status: 405, ctype: text, allow: "POST", want: notAllowed},
		{method: "POST", path: "/healthz", status: 405, ctype: text, allow: "GET, HEAD", want: notAllowed},
		{method: "PATCH", path: "/readyz", status: 405, ctype: text, allow: "GET, HEAD", want: notAllowed},
		{method: "HEAD", path: "/v1/query", status: 405, ctype: text, allow: "POST"},
		{method: "OPTIONS", path: "/v1/points", status: 405, ctype: text, allow: "POST", want: notAllowed},

		// Unknown paths.
		{method: "GET", path: "/", status: 404, ctype: text, want: notFound},
		{method: "POST", path: "/v1", status: 404, ctype: text, want: notFound},
		{method: "POST", path: "/v1/", status: 404, ctype: text, want: notFound},
		{method: "POST", path: "/v1/nope", status: 404, ctype: text, want: notFound},
		{method: "POST", path: "/v1/query/", status: 404, ctype: text, want: notFound},
		{method: "POST", path: "/v1/querybatch", status: 404, ctype: text, want: notFound},
		{method: "POST", path: "/V1/query", status: 404, ctype: text, want: notFound},
		{method: "GET", path: "/healthz/", status: 404, ctype: text, want: notFound},
		{method: "GET", path: "/v1/replication", status: 404, ctype: text, want: notFound},

		// The point id route's edges.
		{method: "PUT", path: "/v1/points/", body: `{"vec":[1,1]}`, status: 404, ctype: text, want: notFound},
		{method: "DELETE", path: "/v1/points/1/2", status: 404, ctype: text, want: notFound},
		{method: "DELETE", path: "/v1/points/1/", status: 404, ctype: text, want: notFound},
		{method: "PUT", path: "/v1/points/x", body: `{"vec":[1,1]}`, status: 400, ctype: json,
			want: "{\"error\":\"bad point id \\\"x\\\"\"}\n"},
		{method: "DELETE", path: "/v1/points/4294967296", status: 400, ctype: json,
			want: "{\"error\":\"bad point id \\\"4294967296\\\"\"}\n"},
		{method: "DELETE", path: "/v1/points/-1", status: 400, ctype: json,
			want: "{\"error\":\"bad point id \\\"-1\\\"\"}\n"},
		{method: "DELETE", path: "/v1/points/1%2F2", status: 400, ctype: json,
			want: "{\"error\":\"bad point id \\\"1/2\\\"\"}\n"},
		{method: "DELETE", path: "/v1/points/%39", status: 400, ctype: json, want: "{\"error\":", prefix: true},

		// Escapes are resolved before matching, but an escaped slash
		// does not split a segment.
		{method: "POST", path: "/v1/%71uery", body: query, status: 200, ctype: json,
			want: `{"ids":[0],"stats":` + stats + "}\n"},
		{method: "POST", path: "/v1%2Fquery", body: query, status: 404, ctype: text, want: notFound},

		// Paths not in canonical form are redirected to their cleaned
		// form, whether or not that names a route.
		{method: "POST", path: "/v1//query", body: query, status: 301, location: "/v1/query"},
		{method: "POST", path: "/v1/./query", body: query, status: 301, location: "/v1/query"},
		{method: "POST", path: "/v1/points/../query", body: query, status: 301, location: "/v1/query"},
		{method: "GET", path: "/v1/stats/.", status: 301, location: "/v1/stats"},
		{method: "DELETE", path: "/v1/points/..", status: 301, location: "/v1"},
		{method: "DELETE", path: "/v1/points/.", status: 301, location: "/v1/points"},
		{method: "GET", path: "/v1//nope?x=1", status: 301, location: "/v1/nope?x=1"},
	} {
		name := c.method + " " + c.path
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := nanos.ReplaceAllString(string(raw), `"$1":0`)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%q)", name, resp.StatusCode, c.status, body)
			continue
		}
		if c.status == http.StatusMovedPermanently {
			if got := resp.Header.Get("Location"); got != c.location {
				t.Errorf("%s: Location %q, want %q", name, got, c.location)
			}
			continue
		}
		if got := resp.Header.Get("Content-Type"); got != c.ctype {
			t.Errorf("%s: Content-Type %q, want %q", name, got, c.ctype)
		}
		if got := strings.Join(resp.Header.Values("Allow"), ", "); got != c.allow {
			t.Errorf("%s: Allow %q, want %q", name, got, c.allow)
		}
		switch {
		case c.method == "HEAD":
			if body != "" {
				t.Errorf("%s: HEAD reply has a body %q", name, body)
			}
		case c.want == "":
		case c.prefix && !strings.HasPrefix(body, c.want), !c.prefix && body != c.want:
			t.Errorf("%s: body %q, want %q", name, body, c.want)
		}
	}
}
