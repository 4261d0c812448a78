package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"planar/internal/core"
)

// refDecode is the decoder the wire codec replaced, kept as the
// reference: encoding/json over the first value of the body, unknown
// fields rejected.
func refDecode(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// sameBits compares two decoded requests exactly: floats by bit
// pattern (so -0 ≠ 0), slices by nil-ness as well as content.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return a.Interface() == b.Interface()
	}
}

// checkAgainstJSON decodes body into got through the wire decoder and
// into want through encoding/json, and fails unless both accept it to
// the same bits or both reject it. The one allowed disagreement is a
// repeated key, which only the wire decoder rejects.
func checkAgainstJSON(t *testing.T, body []byte, got, want any, fields []field) {
	t.Helper()
	sc := getScratch()
	defer sc.release()
	wireErr := sc.decodeObject(body, fields)
	refErr := refDecode(body, want)
	switch {
	case wireErr == nil && refErr != nil:
		t.Fatalf("%T %q: wire accepted, encoding/json rejects: %v", got, body, refErr)
	case wireErr != nil && refErr == nil:
		if !errors.Is(wireErr, errDuplicateField) {
			t.Fatalf("%T %q: encoding/json accepted, wire rejects: %v", got, body, wireErr)
		}
	case wireErr == nil:
		if !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
			t.Fatalf("%T %q: wire decoded %+v, encoding/json %+v", got, body, got, want)
		}
	}
}

func checkAllShapes(t *testing.T, body []byte) {
	t.Helper()
	{
		var got, want queryRequest
		f := got.fields()
		checkAgainstJSON(t, body, &got, &want, f[:])
	}
	{
		var got, want batchRequest
		f := got.fields()
		checkAgainstJSON(t, body, &got, &want, f[:])
		// The whole numbers among the thresholds double as ids for
		// the reply side's id writer.
		var ids []uint32
		for _, b := range got.Bs {
			if id := uint32(b); float64(id) == b {
				ids = append(ids, id)
			}
		}
		checkIDWriter(t, ids)
	}
	{
		var got, want pointRequest
		f := got.fields()
		checkAgainstJSON(t, body, &got, &want, f[:])
	}
	{
		var got, want indexRequest
		f := got.fields()
		checkAgainstJSON(t, body, &got, &want, f[:])
	}
}

// wireSeeds are the request bodies the package's tests send, plus the
// corners of the grammar the decoder has to get exactly as
// encoding/json does.
var wireSeeds = []string{
	`{"a":[1,1],"b":7,"op":"<="}`,
	`{"a":[1,1],"b":7,"op":"\u003c="}`,
	`{"a":[1,1],"b":0,"op":">=","k":2}`,
	`{"a":[1,1],"bs":[3,7,100],"op":"<="}`,
	`{"a":[1,1],"bs":[]}`,
	`{"bs":[0,9,10,99,100,999,1000,9999,10000,99999,100000,999999,1000000,9999999,10000000,99999999,100000000,999999999,1000000000,4294967295]}`,
	`{"vec":[1.5,2.5]}`,
	`{"vec":[9,9]}`,
	`{"normal":[1,2]}`,
	`{"normal":[-1,1],"signs":[1,-1]}`,
	`{"a":[1,1],"b":1,"op":"=="}`,
	`{"a":[1,1],"b":1,"bogus":1}`,
	`{oops`,
	``,
	` null `,
	`nullx`,
	`nul`,
	`[1]`,
	`{}`,
	`{"a":null,"b":null,"op":null,"k":null}`,
	`{"a":[null,1e-7,-0,0.1e+2,1E21,5e-324,1.7976931348623157e308]}`,
	`{"b":1e999}`,
	`{"b":01}`,
	`{"b":-}`,
	`{"b":1.}`,
	`{"b":.5}`,
	`{"b":+1}`,
	`{"b":"1"}`,
	`{"b":1,}`,
	`{"k":1.0}`,
	`{"k":1e2}`,
	`{"k":-0}`,
	`{"k":9223372036854775808}`,
	`{"signs":[127,-128,null]}`,
	`{"signs":[128]}`,
	`{"A":[1],"OP":"ge","K":3,"B":2}`,
	"{\"\u212a\":4,\"b\u017f\":[1]}",
	`{"\u0061":[2],"o\u0070":"\ud83d\ude00\ud800\"\\\/\b\f\n\r\t"}`,
	`{"op":"\ud800\u0041"}`,
	`{"op":"\udc00\ud800"}`,
	`{"op":"\u12"}`,
	`{"op":"\x"}`,
	`{"op":"\'"}`,
	"{\"op\":\"a\x01b\"}",
	"{\"op\":\"caf\xc3\xa9 \xff\xfe \xe2\x82\"}",
	"{\"op\xff\":\"x\"}",
	`{"op":"unterminated`,
	`{"a":[1,2],"a":[3]}`,
	`{"b":1,"B":2}`,
	`{"a":[1 2]}`,
	`{"a":[1,]}`,
	`{"a":[[1]]}`,
	`{"a":{}}`,
	`{"a":[1],"b":2} trailing garbage`,
	"\t\r\n {\t\"vec\" \n:\r[ 1 , 2 ] } ",
	`{"vec":[1,2]`,
	`{"vec"[1,2]}`,
	`{"vec":true}`,
	`{vec:[1]}`,
}

// TestWireDecodeMatchesJSON runs the differential over the seeds, so
// the agreement is checked on every `go test`, not only under -fuzz.
func TestWireDecodeMatchesJSON(t *testing.T) {
	for _, body := range wireSeeds {
		checkAllShapes(t, []byte(body))
	}
}

// FuzzWireDecode is the differential against encoding/json: for every
// body and every request shape, accept/reject agree and accepted
// values are bit-equal.
func FuzzWireDecode(f *testing.F) {
	for _, body := range wireSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAllShapes(t, body) })
}

// The reply shapes as the handlers built them for encoding/json before
// the wire encoders, kept as the reference for the response bytes.
type refStats struct {
	N         int     `json:"n"`
	Accepted  int     `json:"accepted"`
	Verified  int     `json:"verified"`
	Matched   int     `json:"matched"`
	Rejected  int     `json:"rejected"`
	Pruned    float64 `json:"prunedFraction"`
	FellBack  bool    `json:"fellBack"`
	IndexUsed int     `json:"indexUsed"`
	PlanNanos int64   `json:"planNanos"`
	ExecNanos int64   `json:"execNanos"`
}

func toRefStats(st core.Stats) refStats {
	return refStats{
		N: st.N, Accepted: st.Accepted, Verified: st.Verified,
		Matched: st.Matched, Rejected: st.Rejected,
		Pruned: st.PruningFraction(), FellBack: st.FellBack, IndexUsed: st.IndexUsed,
		PlanNanos: st.PlanNanos, ExecNanos: st.ExecNanos,
	}
}

func refIDs(ids []uint32) []uint32 {
	if ids == nil {
		return []uint32{}
	}
	return ids
}

// refAppendIDs is the id writer appendIDs replaced, kept as its
// reference and as BenchmarkAppendIDs' baseline.
func refAppendIDs(b []byte, ids []uint32) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return append(b, ']')
}

type idWriter struct {
	name  string
	write func([]byte, []uint32) []byte
}

// idWriters are the id writer's two paths: appendIDs as served, with
// the AVX2 body where the CPU has it, and the table loop alone.
var idWriters = []idWriter{
	{"appendIDs", appendIDs},
	{"go", func(b []byte, ids []uint32) []byte { return appendIDsOn(b, ids, false) }},
}

// checkIDWriter fails unless both paths of the id writer write ids
// exactly as the strconv loop does, after a prefix they must leave
// alone, and touch nothing past the room they reserve for them.
func checkIDWriter(t *testing.T, ids []uint32) {
	t.Helper()
	const prefix, guard, unwritten = `{"ids":`, 16, 0xAA
	room := len(prefix) + maxIDBytes*len(ids) + 2
	want := refAppendIDs([]byte(prefix), ids)
	for _, w := range idWriters {
		buf := bytes.Repeat([]byte{unwritten}, room+guard)
		got := w.write(append(buf[:0], prefix...), ids)
		if !bytes.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			from := max(at-24, 0)
			t.Fatalf("%s over %d ids differs from strconv at byte %d:\n got …%s\nwant …%s",
				w.name, len(ids), at, got[from:min(at+24, len(got))], want[from:min(at+24, len(want))])
		}
		if past := buf[room:]; !bytes.Equal(past, bytes.Repeat([]byte{unwritten}, guard)) {
			t.Fatalf("%s over %d ids wrote past its reservation: % x", w.name, len(ids), past)
		}
	}
}

// idEdges are 0, MaxUint32 and every 10^k−1, 10^k and 10^k+1 a uint32
// holds: each digit count's first and last id, on both sides of the
// writer's splits at 10⁴ and 10⁸.
func idEdges() []uint32 {
	edges := []uint32{0, math.MaxUint32}
	for p := uint64(10); p <= math.MaxUint32; p *= 10 {
		edges = append(edges, uint32(p-1), uint32(p), uint32(p+1))
	}
	return edges
}

// TestAppendIDsMatchesStrconv walks the id writer over every id below
// 10⁶ in one array, over the digit-count edges alone, in every ordered
// pair and all in one array, over arrays ending on a 1-digit id (whose
// store overruns the most), over 9- and 10-digit ids, 0 and MaxUint32
// in each lane of a group of four, over the compact cases, and over
// answers of every length around the groups' edges and a large one.
func TestAppendIDsMatchesStrconv(t *testing.T) {
	checkIDWriter(t, nil)
	checkIDWriter(t, []uint32{})

	every := make([]uint32, 1e6)
	for i := range every {
		every[i] = uint32(i)
	}
	checkIDWriter(t, every)

	edges := idEdges()
	for _, a := range edges {
		checkIDWriter(t, []uint32{a})
		for _, b := range edges {
			checkIDWriter(t, []uint32{a, b})
		}
	}
	checkIDWriter(t, edges)
	checkIDWriter(t, append(edges, 7))

	// Each lane of the AVX2 body's group, among ids that strip no
	// leading zero and among ids that strip seven.
	for _, id := range []uint32{0, 1e8, 123456789, 1e9, 4012345678, math.MaxUint32} {
		for _, other := range []uint32{7, 12345678} {
			for lane := range 4 {
				group := []uint32{other, other, other, other}
				group[lane] = id
				checkIDWriter(t, group)
			}
		}
	}

	for _, ids := range compactCases() {
		checkIDWriter(t, ids)
	}

	rng := rand.New(rand.NewSource(5))
	large := make([]uint32, 20000)
	for i := range large {
		large[i] = rng.Uint32() >> rng.Intn(32)
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257} {
		checkIDWriter(t, large[:n])
	}
	checkIDWriter(t, large)
}

// compactCases hold the AVX2 body's compact groups (four ids below
// 10⁷) to the strconv loop: every idPairs entry in both halves of a
// group, and 9 999 999 and 10⁷, the last compact id and the first wide
// one, in each lane, each case followed by a tail of 0–3 ids for the
// table loop. No case is longer than FuzzAppendIDs' cap.
func compactCases() [][]uint32 {
	var cases [][]uint32
	// withDigits[l] has l digits and no zero among them.
	withDigits := [8]uint32{0, 7, 76, 765, 7654, 76543, 765432, 7654321}
	for i := range 49 {
		l0, l1 := 1+i/7, 1+i%7
		var ids []uint32
		for j := range 49 {
			ids = append(ids, withDigits[l0], withDigits[l1], withDigits[1+j/7], withDigits[1+j%7])
		}
		cases = append(cases, append(ids, withDigits[1:1+i%4]...))
	}
	for _, id := range []uint32{9999999, 1e7} {
		for lane := range 4 {
			for tail := range 4 {
				ids := []uint32{7, 7, 7, 7, 7, 7, 7, 7}
				ids[4+lane] = id
				for range tail {
					ids = append(ids, id)
				}
				cases = append(cases, ids)
			}
		}
	}
	return cases
}

// maxFuzzIDs caps FuzzAppendIDs' input at 1 024 ids (4 KiB): a longer
// one reaches no path a shorter one does not, and would only slow each
// run and its minimization.
const maxFuzzIDs = 1024

// FuzzAppendIDs is the id writer's differential against the strconv
// loop, on both its paths: the input, four bytes to an id and at most
// maxFuzzIDs ids, written after a prefix. The seeds include every
// compact case.
func FuzzAppendIDs(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 7))
	for _, ids := range append([][]uint32{idEdges()}, compactCases()...) {
		var seed []byte
		for _, id := range ids {
			seed = binary.LittleEndian.AppendUint32(seed, id)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4*maxFuzzIDs {
			return
		}
		ids := make([]uint32, len(raw)/4)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		checkIDWriter(t, ids)
	})
}

// BenchmarkAppendIDs writes a 20 000-id answer of three shapes, through
// appendIDs as served, the table loop alone (go) and the strconv loop:
// emit-shaped, the emit workload's ids below 10⁵ (mostly 5 digits),
// all in the AVX2 body's compact groups; full-range, every length from
// 1 to 10 digits, about half of them 6 to 10, so the paths past the
// 10⁸ split are on record too; and eight, every id of 8 digits, the
// shortest ids whose groups the body writes wide.
func BenchmarkAppendIDs(b *testing.B) {
	for _, shape := range []struct {
		name string
		id   func(*rand.Rand) uint32
	}{
		{"emit", func(rng *rand.Rand) uint32 { return uint32(rng.Intn(100000)) }},
		{"full", func(rng *rand.Rand) uint32 { return rng.Uint32() >> rng.Intn(32) }},
		{"eight", func(rng *rand.Rand) uint32 { return uint32(1e7 + rng.Intn(9e7)) }},
	} {
		rng := rand.New(rand.NewSource(5))
		ids := make([]uint32, 20000)
		for i := range ids {
			ids[i] = shape.id(rng)
		}
		for _, w := range slices.Concat(idWriters, []idWriter{{"strconv", refAppendIDs}}) {
			b.Run(shape.name+"/"+w.name, func(b *testing.B) {
				buf := w.write(nil, ids)
				b.SetBytes(int64(len(buf)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = w.write(buf[:0], ids)
				}
			})
		}
	}
}

// checkReply fails unless got is byte-for-byte what encoding/json
// writes for want, and (the weaker property clients rely on) both
// parse to the same value.
func checkReply(t *testing.T, name string, got []byte, want any) {
	t.Helper()
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(want); err != nil {
		t.Fatal(err)
	}
	var gotVal, wantVal any
	if err := json.Unmarshal(got, &gotVal); err != nil {
		t.Fatalf("%s: reply is not JSON: %v\n%s", name, err, got)
	}
	if err := json.Unmarshal(ref.Bytes(), &wantVal); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotVal, wantVal) {
		t.Fatalf("%s: reply parses to %v, want %v", name, gotVal, wantVal)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatalf("%s: reply bytes differ from encoding/json\n got %s\nwant %s", name, got, ref.Bytes())
	}
}

func TestWireRepliesMatchJSON(t *testing.T) {
	floats := []float64{0, 1, 1e-7, 1e21, 0.1 + 0.2, -0.0, 1e-6, 999999999999999868928, 1.5e-9, -2.5e+100, math.SmallestNonzeroFloat64, math.MaxFloat64}
	idSets := [][]uint32{nil, {}, {0}, {math.MaxUint32}, {1, 22, 333, math.MaxUint32 - 1, 0}}
	stats := []core.Stats{
		{},
		{N: 3, Accepted: 0, Verified: 3, Matched: 1, Rejected: 0, IndexUsed: -1, FellBack: true},
		{N: 100000, Accepted: 20000, Verified: 400, Matched: 7, Rejected: 79600, IndexUsed: 2,
			PlanNanos: 1234, ExecNanos: math.MaxInt64},
	}

	for _, st := range stats {
		for _, ids := range idSets {
			checkReply(t, "query", appendQueryReply(nil, ids, st),
				map[string]any{"ids": refIDs(ids), "stats": toRefStats(st)})
		}
		checkReply(t, "count", appendCountReply(nil, 42, 7, 99, st),
			map[string]any{"count": 42, "bounds": map[string]int{"lo": 7, "hi": 99}, "stats": toRefStats(st)})

		type item struct {
			ID       uint32  `json:"id"`
			Distance float64 `json:"distance"`
		}
		res, items := []core.Result{}, []item{}
		checkReply(t, "topk empty", appendTopKReply(nil, nil, st),
			map[string]any{"results": items, "stats": toRefStats(st)})
		for i, f := range floats {
			res = append(res, core.Result{ID: math.MaxUint32 - uint32(i), Distance: f})
			items = append(items, item{math.MaxUint32 - uint32(i), f})
		}
		checkReply(t, "topk", appendTopKReply(nil, res, st),
			map[string]any{"results": items, "stats": toRefStats(st)})
	}

	type entry struct {
		B     float64  `json:"b"`
		IDs   []uint32 `json:"ids"`
		Stats refStats `json:"stats"`
	}
	var (
		entries []entry
		ids     [][]uint32
		sts     []core.Stats
	)
	for i, f := range floats {
		ids = append(ids, idSets[i%len(idSets)])
		sts = append(sts, stats[i%len(stats)])
		entries = append(entries, entry{f, refIDs(ids[i]), toRefStats(sts[i])})
	}
	checkReply(t, "batch", appendBatchReply(nil, floats, ids, sts), map[string]any{"queries": entries})
	checkReply(t, "batch of one", appendBatchReply(nil, floats[:1], ids[:1], sts[:1]), map[string]any{"queries": entries[:1]})

	checkReply(t, "append", appendIDReply(nil, math.MaxUint32), map[string]any{"id": uint32(math.MaxUint32)})
	checkReply(t, "append 0", appendIDReply(nil, 0), map[string]any{"id": uint32(0)})
	checkReply(t, "ok", okReply, map[string]any{"ok": true})

	// JSON cannot carry NaN or an infinity (encoding/json refuses the
	// whole value); the wire encoder writes null and stays parseable.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := string(appendFloat(nil, f)); got != "null" {
			t.Fatalf("appendFloat(%v) = %q, want null", f, got)
		}
	}
}

// TestOversizedBody posts bodies past maxBodyBytes to the routes whose
// arrays a client controls and expects 413, with the store untouched
// and the same routes still serving afterwards.
func TestOversizedBody(t *testing.T) {
	ts, db := testServer(t)
	huge := strings.Repeat("1.25,", maxBodyBytes/5+1) + "1"
	for _, c := range []struct{ method, path, body string }{
		{"POST", "/v1/points", `{"vec":[` + huge + `]}`},
		{"PUT", "/v1/points/0", `{"vec":[` + huge + `]}`},
		{"POST", "/v1/query/batch", `{"a":[1,1],"bs":[` + huge + `]}`},
		{"POST", "/v1/query", `{"a":[` + huge + `],"b":1}`},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s %s with a %d-byte body: status %d, want 413", c.method, c.path, len(c.body), resp.StatusCode)
		}
		if err != nil || out["error"] == nil {
			t.Fatalf("%s %s: 413 without an error body: %v %v", c.method, c.path, out, err)
		}
		// The rest of the body is never read, so the connection cannot
		// carry another request.
		if !resp.Close {
			t.Fatalf("%s %s: the server keeps the connection open after a 413", c.method, c.path)
		}
	}
	if db.Len() != 0 {
		t.Fatalf("oversized requests stored %d points", db.Len())
	}
	// A body just under the cap is only rejected for what it says.
	under := `{"vec":[` + strings.Repeat("1.25,", (maxBodyBytes-64)/5) + `1]}`
	if len(under) > maxBodyBytes {
		t.Fatalf("test body is %d bytes, over the cap", len(under))
	}
	call(t, ts, "POST", "/v1/points", json.RawMessage(under), http.StatusBadRequest) // wrong dimension
	call(t, ts, "POST", "/v1/points", map[string]any{"vec": []float64{1, 2}}, http.StatusOK)
}
