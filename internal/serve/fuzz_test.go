package serve

import (
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// allocatedBy returns the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeRequest throws arbitrary bytes at the request decoder under
// tight caps and checks its contract: never panic, never accept a request
// that violates a cap, and always normalize what it does accept. It also
// holds the canonical fast path to a strict subset of json.Unmarshal: a body
// the fast path accepts, json.Unmarshal accepts too and decodes to a
// reflect.DeepEqual request, and the fast path alone allocates at most
// 4×len(body)+64 KiB.
func FuzzDecodeRequest(f *testing.F) {
	verify, err := json.Marshal(Request{
		Instance: "weblike-6-0",
		MateX:    []int32{3, -1, 0, 7, 2, -1, 5, 1, 4, 6},
		MateY:    []int32{2, 7, 4, 0, 8, 6, 9, 3, -1, -1},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(verify)
	seeds := []string{
		`{"instance":"g"}`,
		`{"instance":"g","algorithm":"pf","initializer":"ks","threads":2,"seed":7}`,
		`{"instance":"g","deadline_ms":250,"class":"batch","mates":true,"no_cache":true}`,
		`{"instance":"g","mate_x":[0,1,-1],"mate_y":[1,0],"b":[1.5,2.5]}`,
		`{"instance":"` + strings.Repeat("a", 300) + `"}`,
		`{"instance":"g","algorithm":"quantum"}`,
		`{"instance":"g","threads":-3}`,
		`{"instance":"g","deadline_ms":-1}`,
		`{"instance":"g","class":"vip"}`,
		`{}`,
		`{`,
		`[]`,
		`null`,
		`"instance"`,
		"\x00\xff\xfe",
		// The other perfbench shapes: hit, hit with mates, compute.
		`{"instance":"rmat-8-0","mates":true}`,
		`{"instance":"weblike-7-3","initializer":"greedy","no_cache":true}`,
		// Keys in another case, escapes, non-ASCII names.
		`{"Instance":"g","MATES":true,"Mate_X":[1]}`,
		`{"instance":"\u0041"}`,
		`{"instance":"a\"b"}`,
		`{"instance":"gr\u00e1f"}`,
		"{\"instance\":\"gr\xc3\xa1f\"}",
		"{\"instance\":\"g\x7f\"}",
		// null for each field.
		`{"instance":null}`,
		`{"instance":"g","algorithm":null,"initializer":null,"class":null}`,
		`{"instance":"g","threads":null,"seed":null,"deadline_ms":null}`,
		`{"instance":"g","mates":null,"no_cache":null}`,
		`{"instance":"g","mate_x":[1],"mate_x":null,"mate_y":null,"b":null}`,
		// Numbers that are not canonical integers.
		`{"instance":"g","threads":1.0}`,
		`{"instance":"g","seed":1e3}`,
		`{"instance":"g","deadline_ms":01}`,
		`{"instance":"g","threads":-0,"seed":-0}`,
		`{"instance":"g","mate_x":[1.0],"mate_y":[1e3]}`,
		`{"instance":"g","mate_x":[01],"mate_y":[-0]}`,
		`{"instance":"g","mate_x":[1E3,-]}`,
		// Integers at and past their field's limits.
		`{"instance":"g","mate_x":[2147483647,-2147483648]}`,
		// Runs of -1, most of a mate array at a low matching number, beside
		// other negatives and a missing separator.
		`{"instance":"g","mate_x":[-1,-1,-12,-1 ,-1],"mate_y":[-1]}`,
		`{"instance":"g","mate_x":[-1,-1-1,-1]}`,
		`{"instance":"g","mate_x":[2147483648]}`,
		`{"instance":"g","mate_y":[-2147483649]}`,
		`{"instance":"g","threads":2147483648}`,
		`{"instance":"g","threads":9223372036854775807}`,
		`{"instance":"g","seed":-9223372036854775808,"deadline_ms":9223372036854775807}`,
		`{"instance":"g","seed":9223372036854775808}`,
		`{"instance":"g","seed":99999999999999999999}`,
		// Duplicate keys, empty arrays, whitespace, trailing bytes.
		`{"instance":"a","instance":"b","mates":true,"mates":false}`,
		`{"instance":"g","mate_x":[1,2,3],"mate_x":[4],"mate_y":[5],"mate_y":[]}`,
		`{"instance":"g","mate_x":[],"mate_y":[ ]}`,
		"\t{ \"instance\" :\n\"g\" ,\r\"mate_x\" : [ 1 , -1 ] , \"mates\" : true , \"threads\" : 2 }\n",
		`{"instance":"g"}x`,
		`{"instance":"g"} {}`,
		`{"instance":"g","mate_x":[1,2,]}`,
		`{"instance":"g","mate_x":[,1]}`,
		`{"instance":"g","mate_x":[1 2]}`,
		`{"instance":"g",}`,
		`{"instance":"g","mates":truex}`,
		`{"instance":"g","mate_x":[1]]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	caps := Caps{MaxBody: 4096, MaxName: 64, MaxThreads: 16, MaxVector: 32}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast Request
		var ok bool
		alloc := allocatedBy(func() { fast, ok = decodeCanonical(body, DefaultMaxVector) })
		if limit := 4*uint64(len(body)) + 64<<10; alloc > limit {
			t.Fatalf("the fast path allocated %d bytes decoding %d, over the %d-byte bound", alloc, len(body), limit)
		}
		if ok {
			var want Request
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("the fast path accepted %q, which json.Unmarshal rejects: %v", body, err)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("%q: the fast path decoded %+v, json.Unmarshal %+v", body, fast, want)
			}
		}

		req, err := DecodeRequest(body, caps)
		if err != nil {
			if _, ok := err.(*BadRequestError); !ok {
				t.Fatalf("error type %T, want *BadRequestError: %v", err, err)
			}
			return
		}
		// Accepted requests must honor every cap and normalization the
		// server relies on downstream.
		if req.Instance == "" || len(req.Instance) > caps.MaxName {
			t.Fatalf("accepted instance %q violates caps", req.Instance)
		}
		if req.Threads < 0 || req.Threads > caps.MaxThreads {
			t.Fatalf("accepted threads %d violates caps", req.Threads)
		}
		if req.DeadlineMS < 0 {
			t.Fatalf("accepted negative deadline %d", req.DeadlineMS)
		}
		if req.Class != ClassInteractive && req.Class != ClassBatch {
			t.Fatalf("accepted class %q not normalized", req.Class)
		}
		if len(req.MateX) > caps.MaxVector || len(req.MateY) > caps.MaxVector || len(req.B) > caps.MaxVector {
			t.Fatalf("accepted vectors %d/%d/%d violate caps", len(req.MateX), len(req.MateY), len(req.B))
		}
		// Options resolution must succeed for anything the decoder let
		// through (the server calls it without re-validating).
		_ = req.Options()
		now := time.Now()
		if req.Deadline(now, DefaultDeadline, DefaultMaxDeadline).Before(now) {
			t.Fatal("resolved deadline in the past")
		}
	})
}
