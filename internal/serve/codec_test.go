package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"graftmatch/internal/core"
	"graftmatch/internal/gen"
	"graftmatch/internal/hk"
	"graftmatch/internal/matching"
)

// TestDecodeCanonicalTakes pins which bodies the fast path reads itself and
// which it hands to json.Unmarshal; FuzzDecodeRequest checks that the ones
// it reads decode as json.Unmarshal decodes them.
func TestDecodeCanonicalTakes(t *testing.T) {
	for _, c := range []struct {
		body string
		fast bool
	}{
		{`{"instance":"g"}`, true},
		{`{"instance":"g","mates":true}`, true},
		{`{"instance":"g","initializer":"greedy","no_cache":true}`, true},
		{`{"instance":"g","algorithm":"pf","class":"batch","threads":2,"seed":-7,"deadline_ms":250}`, true},
		{`{"instance":"g","mate_x":[0,-1,2147483647,-2147483648],"mate_y":[]}`, true},
		{`{"instance":"g","threads":-0,"mate_x":[-0]}`, true},
		{`{"instance":"g","mate_x":[-1,-10,-1 , -1],"mate_y":[-1]}`, true},
		{`{"instance":"g","mate_x":[-1,-01]}`, false},
		{`{"instance":"g","mate_x":[-1-1]}`, false},
		{"\t{ \"instance\" :\n\"g\" ,\r\"mate_x\" : [ 1 , -1 ] }\n", true},
		{`{"instance":"a","instance":"b"}`, true},
		{`{}`, true},
		{`{"Instance":"g"}`, false},
		{`{"instance":"\u0041"}`, false},
		{"{\"instance\":\"gr\xc3\xa1f\"}", false},
		{`{"instance":null}`, false},
		{`{"instance":"g","threads":1.0}`, false},
		{`{"instance":"g","seed":1e3}`, false},
		{`{"instance":"g","mate_x":[01]}`, false},
		{`{"instance":"g","mate_x":[2147483648]}`, false},
		{`{"instance":"g","seed":9223372036854775808}`, false},
		{`{"instance":"g","b":[1]}`, false},
		{`{"instance":"g","extra":1}`, false},
		{`{"instance":"g"}x`, false},
		{`{"instance":"g","mate_x":[1,2,3,4,5]}`, false}, // over the cap of 4
	} {
		if _, fast := decodeCanonical([]byte(c.body), 4); fast != c.fast {
			t.Errorf("%q: fast path %v, want %v", c.body, fast, c.fast)
		}
	}
	if _, fast := decodeCanonical([]byte(`{"instance":"g","threads":2147483648}`), 4); fast != (strconv.IntSize == 64) {
		t.Errorf("threads 2^31: fast path %v on a %d-bit int", fast, strconv.IntSize)
	}
}

// TestMatchBodyIsEncoderOutput holds the /match encoder to json.NewEncoder's
// bytes: for each answer shape the body equals the standard encoder's
// output, newline included, whether the mates are encoded on the spot or
// copied from a cached answer's stored appendMates bytes, and Content-Length
// is the body's length.
func TestMatchBodyIsEncoderOutput(t *testing.T) {
	mates := []int32{3, -1, 0, 2147483647, -2147483648, 1}
	for name, resp := range map[string]*MatchResponse{
		"no mates": {Instance: "small", Algorithm: "msbfsgraft", Cardinality: 190,
			Complete: true, Source: "cache", InitialCardinality: 170, Phases: 4,
			RuntimeMS: 0.123, Engine: "MS-BFS-Graft"},
		"mates": {Instance: "small", Algorithm: "msbfsgraft", Cardinality: 4,
			Complete: true, Source: "computed", Phases: 2, RuntimeMS: 1.5,
			Engine: "MS-BFS-Graft", MateX: mates, MateY: mates[:4]},
		"empty mate arrays": {Instance: "e", Algorithm: "pf", Source: "computed",
			Complete: true, Engine: "PF", MateX: []int32{}, MateY: []int32{}},
		"only mate_y": {Instance: "y", Algorithm: "pf", Source: "cache",
			MateY: []int32{-1}},
		"degraded partial": {Instance: "big", Algorithm: "msbfsgraft", Cardinality: 7,
			Degraded: true, Source: "partial", InitialCardinality: 5, Phases: 1,
			RuntimeMS: 1, Engine: "MS-BFS-Graft", MateX: mates},
		"last-good": {Instance: "big", Algorithm: "pr", Cardinality: 9,
			Complete: true, Degraded: true, Source: "last-good", RuntimeMS: 2.25,
			Engine: "MS-BFS-Graft", MateX: mates, MateY: mates},
		"escaped name": {Instance: "a<b>&\"c\"\u2028", Algorithm: "msbfsgraft",
			Source: "cache", MateX: mates},
		"large runtime_ms": {Instance: "slow", Algorithm: "msbfsgraft",
			Complete: true, Source: "computed", RuntimeMS: 123456789.125},
		"huge runtime_ms": {Instance: "slow", Algorithm: "msbfsgraft",
			Source: "partial", RuntimeMS: 3e21, MateY: mates},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		for _, stored := range []bool{false, true} {
			var mates []byte
			if stored {
				mates = appendMates(nil, resp.MateX, resp.MateY)
			}
			rec := httptest.NewRecorder()
			writeMatch(rec, resp, mates)
			got := rec.Body.Bytes()
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s (stored mates %v):\n got %s\nwant %s", name, stored, got, want.Bytes())
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(got)) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, len(got))
			}
			if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s: status %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
			}
		}
	}
}

// TestMatchEndpointBodies checks real /match answers, computed and cached,
// with and without mates, over HTTP: each body re-encodes byte for byte
// through json.NewEncoder and arrives with its Content-Length. The second
// request is the first hit with mates, which encodes and stores them; the
// third copies the stored bytes.
func TestMatchEndpointBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{}, smallRegistry(t))
	for _, c := range []struct{ body, source string }{
		{`{"instance":"small","mates":true}`, "computed"},
		{`{"instance":"small","mates":true}`, "cache"},
		{`{"instance":"small","mates":true}`, "cache"},
		{`{"instance":"small"}`, "cache"},
		{`{"instance":"square","mates":true,"algorithm":"pf","no_cache":true}`, "computed"},
	} {
		body := c.body
		resp, err := http.Post(ts.URL+"/match", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var data bytes.Buffer
		_, err = data.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", body, resp.StatusCode, err, data.Bytes())
		}
		if resp.ContentLength != int64(data.Len()) {
			t.Errorf("%s: Content-Length %d for a %d-byte body", body, resp.ContentLength, data.Len())
		}
		m := decodeMatch(t, data.Bytes())
		if m.Source != c.source || strings.Contains(body, "mates") != (len(m.MateX) > 0) {
			t.Errorf("%s: source %q with %d mates, want source %q", body, m.Source, len(m.MateX), c.source)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n got %s\nwant %s", body, data.Bytes(), want.Bytes())
		}
	}
}

// BenchmarkServeCodec times matchd's per-request work on its large bodies,
// on the perfbench matchd shapes: decoding a /verify body of 2 × 8,192 mates;
// encoding an answer with mates into a reused buffer, with strconv as a
// computed answer and a cache entry's first hit with mates do
// (encode-hit-mates), and from the stored bytes every later hit copies
// (encode-hit-stored-mates); and validating and counting an MS-BFS-Graft
// answer, what certify runs on a computed answer once its graph's ν is
// known (certify).
// Each row allocates the same per op in every run, so the CI counters job
// gates allocs/op.
func BenchmarkServeCodec(b *testing.B) {
	g := gen.WebLike(13, 6, 0.30, 1)
	m := matching.New(g.NX(), g.NY())
	hk.Run(g, m)
	b.Run("decode-verify", func(b *testing.B) {
		body, err := json.Marshal(Request{Instance: "weblike-6-0", MateX: m.MateX, MateY: m.MateY})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRequest(body, Caps{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	resp := &MatchResponse{
		Instance: "weblike-6-0", Algorithm: "msbfsgraft", Cardinality: m.Cardinality(),
		Complete: true, Source: "cache", InitialCardinality: m.Cardinality() - 100,
		Phases: 12, RuntimeMS: 0.287, Engine: "MS-BFS-Graft", MateX: m.MateX, MateY: m.MateY,
	}
	for _, row := range []struct {
		name  string
		mates []byte
	}{
		{"encode-hit-mates", nil},
		{"encode-hit-stored-mates", appendMates(nil, m.MateX, m.MateY)},
	} {
		b.Run(row.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := encodeMatch(&buf, resp, row.mates); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := encodeMatch(&buf, resp, row.mates); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("certify", func(b *testing.B) {
		mg := matching.New(g.NX(), g.NY())
		if _, err := core.RunCtx(context.Background(), g, mg, core.FullOptions(1)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mg.VerifyCardinality(g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
