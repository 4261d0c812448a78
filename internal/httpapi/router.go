package httpapi

import (
	"net/http"
	"net/url"
	"path"
	"strings"
)

// router is the handler Handler returns: a table of exact paths, the
// one route with a path parameter, and for everything else the
// answers net/http's pattern router gave these routes before it (see
// the package doc).
type router struct {
	routes map[string]*route
	point  route // /v1/points/{id}
}

// pointPrefix is the path of /v1/points/{id} up to the id.
const pointPrefix = "/v1/points/"

// route holds one path's handlers by method; a nil one is a method the
// path does not answer. The GET handler answers HEAD too.
type route struct {
	get, post, put, delete http.HandlerFunc
}

func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// A path that arrived without escapes it did not need (RawPath is
	// empty) has the segments of its escaped form, and the table's
	// paths are clean, so a hit needs neither unescaping nor cleaning.
	if r.URL.RawPath == "" {
		p := r.URL.Path
		if h := rt.routes[p]; h != nil {
			h.serve(w, r)
			return
		}
		// An id starting with a dot may be a . or .. to be cleaned away.
		if id, ok := strings.CutPrefix(p, pointPrefix); ok && id != "" && id[0] != '.' && strings.IndexByte(id, '/') < 0 {
			rt.point.serve(w, r)
			return
		}
	}
	rt.slow(w, r)
}

func (h *route) serve(w http.ResponseWriter, r *http.Request) {
	var next http.HandlerFunc
	switch r.Method {
	case http.MethodPost:
		next = h.post
	case http.MethodGet, http.MethodHead:
		next = h.get
	case http.MethodPut:
		next = h.put
	case http.MethodDelete:
		next = h.delete
	}
	if next == nil {
		w.Header()["Allow"] = []string{h.allow()}
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
		return
	}
	next(w, r)
}

// allow lists the methods a route answers, sorted, as a 405's Allow
// header does.
func (h *route) allow() string {
	var methods []string
	if h.delete != nil {
		methods = append(methods, http.MethodDelete)
	}
	if h.get != nil {
		methods = append(methods, http.MethodGet, http.MethodHead)
	}
	if h.post != nil {
		methods = append(methods, http.MethodPost)
	}
	if h.put != nil {
		methods = append(methods, http.MethodPut)
	}
	return strings.Join(methods, ", ")
}

// slow answers a request the table did not match at once: a request
// for *, a path to be cleaned (a 301 to its clean form), a path with
// escapes, and one that names no route (404).
func (rt *router) slow(w http.ResponseWriter, r *http.Request) {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header()["Connection"] = connectionClose
		}
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	escaped := r.URL.EscapedPath()
	if r.Method != http.MethodConnect {
		if clean := cleanPath(escaped); clean != escaped {
			// clean is already escaped: it goes into Location as it
			// is, so /v1//%71uery is sent to /v1/%71uery, not to a
			// path whose % is escaped a second time.
			if r.URL.RawQuery != "" {
				clean += "?" + r.URL.RawQuery
			}
			http.Redirect(w, r, clean, http.StatusMovedPermanently)
			return
		}
	}
	if h := rt.matchSegments(escaped); h != nil {
		h.serve(w, r)
		return
	}
	http.NotFound(w, r)
}

// matchSegments matches an escaped path segment by segment, each one
// unescaped: %71uery is query, and an escaped slash stays inside its
// segment, so /v1%2Fquery names no route and /v1/points/1%2F2 asks
// for point "1/2".
func (rt *router) matchSegments(escaped string) *route {
	segs := strings.Split(strings.TrimPrefix(escaped, "/"), "/")
	for i, seg := range segs {
		var err error
		if segs[i], err = url.PathUnescape(seg); err != nil {
			return nil
		}
	}
	if len(segs) == 3 && segs[0] == "v1" && segs[1] == "points" && segs[2] != "" {
		return &rt.point
	}
	for _, seg := range segs {
		if strings.IndexByte(seg, '/') >= 0 {
			return nil
		}
	}
	return rt.routes["/"+strings.Join(segs, "/")]
}

// cleanPath is the canonical form of a request path: rooted, with no
// empty, . or .. segments, and a trailing slash kept.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		np += "/"
	}
	return np
}
