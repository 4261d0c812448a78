package lint

import (
	"go/types"
	"sort"
	"strings"
	"testing"

	"planar/internal/lint/analysis"
)

// TestLockTableNamesRealFunctions loads every package the cross-package
// acquisition table names and fails on any key that resolves to no
// function or method: a stale row silently stops checking the call
// sites it was written for.
func TestLockTableNamesRealFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks part of the module")
	}
	type ref struct{ pkg, recv, name string }
	refs := map[string]ref{}
	var paths []string
	seen := map[string]bool{}
	for key := range lockAcquiredByCall {
		slash := strings.LastIndex(key, "/")
		parts := strings.Split(key[slash+1:], ".")
		r := ref{pkg: key[:slash+1] + parts[0]}
		switch len(parts) {
		case 2:
			r.name = parts[1]
		case 3:
			r.recv, r.name = parts[1], parts[2]
		default:
			t.Errorf("malformed table key %q", key)
			continue
		}
		refs[key] = r
		if !seen[r.pkg] {
			seen[r.pkg] = true
			paths = append(paths, r.pkg)
		}
	}
	sort.Strings(paths)
	pkgs, err := analysis.Load("../..", paths)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p.Types
	}
	for key, r := range refs {
		pkg := byPath[r.pkg]
		if pkg == nil {
			t.Errorf("%s: package %s not found", key, r.pkg)
			continue
		}
		if r.recv == "" {
			if _, ok := pkg.Scope().Lookup(r.name).(*types.Func); !ok {
				t.Errorf("%s: no function %s in %s", key, r.name, r.pkg)
			}
			continue
		}
		tn, ok := pkg.Scope().Lookup(r.recv).(*types.TypeName)
		if !ok {
			t.Errorf("%s: no type %s in %s", key, r.recv, r.pkg)
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, r.name)
		if _, ok := obj.(*types.Func); !ok {
			t.Errorf("%s: %s has no method %s", key, r.recv, r.name)
		}
	}
}
