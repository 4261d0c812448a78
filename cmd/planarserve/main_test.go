package main

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     []string
		replica bool
		refused string // the flag named in the error; "" = accepted
	}{
		{"no flags", nil, false, ""},
		{"primary with store flags", []string{"dim", "shards", "paged", "page-cache-mb", "ingest-batch", "ingest-shed"}, false, ""},
		{"replica alone", []string{"replicate-from"}, true, ""},
		{"replica with its own flags", []string{"replicate-from", "data", "addr", "sync", "checkpoint", "proxy-writes", "ready-max-lag", "role", "shutdown-timeout"}, true, ""},
		{"replica with -dim", []string{"replicate-from", "dim"}, true, "-dim"},
		{"replica with -shards", []string{"replicate-from", "shards"}, true, "-shards"},
		{"replica with -paged", []string{"replicate-from", "paged"}, true, "-paged"},
		{"replica with -page-cache-mb", []string{"replicate-from", "page-cache-mb"}, true, "-page-cache-mb"},
		{"replica with -ingest-batch", []string{"replicate-from", "ingest-batch"}, true, "-ingest-batch"},
		{"replica with -ingest-shed", []string{"replicate-from", "ingest-shed"}, true, "-ingest-shed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, name := range tc.set {
				set[name] = true
			}
			err := checkFlags(set, tc.replica)
			switch {
			case tc.refused == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.refused != "" && err == nil:
				t.Fatalf("accepted %s on a replica", tc.refused)
			case tc.refused != "" && !strings.HasPrefix(err.Error(), tc.refused+" "):
				t.Fatalf("error %q does not name %s", err, tc.refused)
			}
		})
	}
}
