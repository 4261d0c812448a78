package btree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"planar/internal/btree/reftree"
)

// bulkKeys is the key pool of TestBulkLoadSortDifferential: few enough
// values that keys repeat, both zeros, the infinities, and keys that
// differ only in their lowest mantissa bits.
var bulkKeys = []float64{
	math.Copysign(0, -1), 0, -1.5, 2, 3.25, math.Inf(-1), math.Inf(1),
	1e300, -1e-300, math.Nextafter(2, 3), math.Nextafter(2, 1), 7e-310,
}

// bulkEntries draws n entries with keys from bulkKeys (and sometimes a
// fresh random key), ids mostly from a small range so (key, id) pairs
// repeat, and the ids laid out in the given order: "asc"
// (non-decreasing, the order Index.build hands over), "desc",
// "random", or "sorted" (the whole input already in (key, id) order).
func bulkEntries(rng *rand.Rand, n int, order string) []Entry {
	es := make([]Entry, n)
	for i := range es {
		k := bulkKeys[rng.Intn(len(bulkKeys))]
		if rng.Intn(4) == 0 {
			k = rng.NormFloat64() * 1e3
		}
		id := uint32(rng.Intn(n/2 + 1))
		if rng.Intn(8) == 0 {
			id = rng.Uint32() // vary the id's high bytes too
		}
		es[i] = Entry{Key: k, ID: id}
	}
	switch order {
	case "asc", "desc":
		sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
		if order == "desc" {
			for i, j := 0, len(es)-1; i < j; i, j = i+1, j-1 {
				es[i], es[j] = es[j], es[i]
			}
		}
	case "sorted":
		sort.Slice(es, func(i, j int) bool { return es[i].Less(es[j]) })
	}
	return es
}

// rankOrder lists a tree's entries through RankChunks (ids) and
// DescendChunks (keys), the two walks the engine runs on.
func rankOrder(t *testing.T, tr *Tree) []Entry {
	t.Helper()
	var ids []uint32
	tr.RankChunks(0, tr.Len(), func(c []uint32) bool {
		ids = append(ids, c...)
		return true
	})
	var keys []float64
	tr.DescendChunks(tr.Len(), func(ks []float64, _ []uint32) bool {
		keys = append(append([]float64(nil), ks...), keys...)
		return true
	})
	if len(ids) != tr.Len() || len(keys) != tr.Len() {
		t.Fatalf("walks give %d ids and %d keys for Len %d", len(ids), len(keys), tr.Len())
	}
	out := make([]Entry, len(ids))
	for i := range out {
		out[i] = Entry{Key: keys[i], ID: ids[i]}
	}
	return out
}

// TestBulkLoadSortDifferential holds BulkLoad's radix sort to the
// pointer tree's sort.Slice build over inputs that stress it: repeated
// keys and (key, id) pairs, −0 next to +0 (equal under less, so only
// the id orders them), and ids ascending (the id passes skipped),
// descending, random, and already sorted (the early return). The
// arena tree is checked in RAM and again after WritePaged/OpenPaged.
func TestBulkLoadSortDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{0, 1, 2, 255, 256, 257, 10000} {
		for _, order := range []string{"asc", "desc", "random", "sorted"} {
			t.Run(fmt.Sprintf("n=%d/%s", n, order), func(t *testing.T) {
				es := bulkEntries(rng, n, order)
				refEs := make([]reftree.Entry, len(es))
				for i, e := range es {
					refEs[i] = reftree.Entry{Key: e.Key, ID: e.ID}
				}
				ref := reftree.BulkLoad(refEs)
				want := refCollect(ref)

				ram, paged, f, _ := buildPaged(t, es, 1<<20)
				defer f.Close()
				// The sort runs in the leaf arena; what it leaves past a
				// leaf's live count is zeroed, so pages match a fresh arena.
				for s := range ram.lnum {
					for j := int(ram.lnum[s]); j < leafCap; j++ {
						if ram.keys[s*leafCap+j] != 0 || ram.ids[s*leafCap+j] != 0 {
							t.Fatalf("leaf %d position %d past the live count holds %v/%d", s, j, ram.keys[s*leafCap+j], ram.ids[s*leafCap+j])
						}
					}
				}
				for _, tr := range []*Tree{ram, paged} {
					mustValidate(t, tr)
					if tr.Len() != ref.Len() {
						t.Fatalf("paged=%v: Len %d, sort.Slice reference %d", tr.Paged(), tr.Len(), ref.Len())
					}
					got := rankOrder(t, tr)
					for i := range got {
						// == holds −0 and +0 equal, as less does.
						if got[i] != want[i] {
							t.Fatalf("paged=%v: entry %d is %v, sort.Slice reference %v", tr.Paged(), i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestSortEntriesSortedInputSkipsScratch pins the early return: input
// already in (key, id) order, −0 next to +0 included, is left as it
// is without a pass, so it needs no scratch columns at all.
func TestSortEntriesSortedInputSkipsScratch(t *testing.T) {
	es := []Entry{{math.Inf(-1), 9}, {0, 1}, {math.Copysign(0, -1), 2}, {0, 3}, {5, 0}}
	before := append([]Entry(nil), es...)
	sortEntries(es, nil, nil)
	for i := range es {
		if math.Float64bits(es[i].Key) != math.Float64bits(before[i].Key) || es[i].ID != before[i].ID {
			t.Fatalf("sorted input moved: %v, was %v", es, before)
		}
	}
}
