package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"graftmatch"
)

// Default request-decoder caps; see Caps.
const (
	DefaultMaxBody    int64 = 8 << 20 // JSON body bytes (mate arrays dominate)
	DefaultMaxName    int   = 256     // instance name length
	DefaultMaxThreads int   = 1 << 12
	DefaultMaxVector  int   = 1 << 24 // entries in a mate/b vector
)

// Caps bounds what the request decoder accepts, in the same spirit as
// mmio.Limits: every size is checked before (body cap) or immediately after
// (field caps) the allocation it would drive, so a hostile request cannot
// make the daemon allocate unboundedly. The zero value applies the package
// defaults.
type Caps struct {
	// MaxBody caps the request body in bytes; 0 means DefaultMaxBody.
	// This is the true allocation bound: a JSON payload cannot expand into
	// more decoded vector entries than it has bytes.
	MaxBody int64

	// MaxName caps the instance name length; 0 means DefaultMaxName.
	MaxName int

	// MaxThreads caps the per-request thread count; 0 means
	// DefaultMaxThreads.
	MaxThreads int

	// MaxVector caps the entries of the mate_x/mate_y/b vectors;
	// 0 means DefaultMaxVector.
	MaxVector int
}

func (c Caps) maxBody() int64 {
	if c.MaxBody > 0 {
		return c.MaxBody
	}
	return DefaultMaxBody
}

func (c Caps) maxName() int {
	if c.MaxName > 0 {
		return c.MaxName
	}
	return DefaultMaxName
}

func (c Caps) maxThreads() int {
	if c.MaxThreads > 0 {
		return c.MaxThreads
	}
	return DefaultMaxThreads
}

func (c Caps) maxVector() int {
	if c.MaxVector > 0 {
		return c.MaxVector
	}
	return DefaultMaxVector
}

// Request is the JSON body shared by the POST endpoints. Endpoint-specific
// fields are ignored elsewhere: mate_x/mate_y belong to /verify, b to
// /btfsolve.
type Request struct {
	// Instance names the registry graph to operate on. Required.
	Instance string `json:"instance"`

	// Algorithm and Initializer select the engine configuration; empty
	// means msbfsgraft with Karp–Sipser, the paper's recommendation.
	Algorithm   string `json:"algorithm,omitempty"`
	Initializer string `json:"initializer,omitempty"`

	// Threads is the per-request worker count (0 = server default). The
	// workers come from the server's shared pool either way; this only
	// sets how many region slices the run splits into.
	Threads int `json:"threads,omitempty"`

	// Seed drives the randomized initializers.
	Seed int64 `json:"seed,omitempty"`

	// DeadlineMS bounds the request's wall-clock time in milliseconds;
	// 0 means the server's default deadline. A request that reaches its
	// deadline receives a degraded answer (last-good or partial), not an
	// error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Class is the admission class ("interactive" by default, or "batch");
	// each class has its own concurrency limit.
	Class string `json:"class,omitempty"`

	// Mates includes the mate arrays in the response (they dominate the
	// response size, so they are opt-in).
	Mates bool `json:"mates,omitempty"`

	// NoCache bypasses the result cache (the computation still populates
	// it).
	NoCache bool `json:"no_cache,omitempty"`

	// MateX/MateY are the matching to check; /verify only.
	MateX []int32 `json:"mate_x,omitempty"`
	MateY []int32 `json:"mate_y,omitempty"`

	// B is the right-hand side of the linear system; /btfsolve only.
	// Empty means the all-ones vector.
	B []float64 `json:"b,omitempty"`
}

// knownClasses are the admission classes a request may name; "" maps to
// ClassInteractive.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

// DecodeRequest parses and validates one request body under caps. Every
// failure is a *BadRequestError suitable for a 400 response; the decoder
// never panics on arbitrary input and never allocates beyond a small factor
// of min(len(body), caps.MaxBody). A canonical body (decodeCanonical) is
// read in one pass; any other goes to json.Unmarshal, so every body yields
// the request and the error encoding/json gives it.
func DecodeRequest(body []byte, caps Caps) (*Request, error) {
	if int64(len(body)) > caps.maxBody() {
		return nil, badRequestf("request body %d bytes exceeds limit %d", len(body), caps.maxBody())
	}
	req, ok := decodeCanonical(body, caps.maxVector())
	if !ok {
		req = Request{}
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, badRequestf("malformed JSON: %v", err)
		}
	}
	if req.Instance == "" {
		return nil, badRequestf("missing \"instance\"")
	}
	if len(req.Instance) > caps.maxName() {
		return nil, badRequestf("instance name %d bytes exceeds limit %d", len(req.Instance), caps.maxName())
	}
	if _, err := graftmatch.ParseAlgorithm(req.Algorithm); err != nil {
		return nil, badRequestf("%v", err)
	}
	if _, err := graftmatch.ParseInitializer(req.Initializer); err != nil {
		return nil, badRequestf("%v", err)
	}
	if req.Threads < 0 || req.Threads > caps.maxThreads() {
		return nil, badRequestf("threads %d outside [0, %d]", req.Threads, caps.maxThreads())
	}
	if req.DeadlineMS < 0 {
		return nil, badRequestf("negative deadline_ms %d", req.DeadlineMS)
	}
	switch req.Class {
	case "", ClassInteractive, ClassBatch:
	default:
		return nil, badRequestf("unknown class %q (want %q or %q)", req.Class, ClassInteractive, ClassBatch)
	}
	if req.Class == "" {
		req.Class = ClassInteractive
	}
	for _, v := range [...]struct {
		name string
		n    int
	}{{"mate_x", len(req.MateX)}, {"mate_y", len(req.MateY)}, {"b", len(req.B)}} {
		if v.n > caps.maxVector() {
			return nil, badRequestf("%s has %d entries, limit %d", v.name, v.n, caps.maxVector()) //lint:ignore hotpath-alloc over-cap rejection exits a three-entry validation loop
		}
	}
	return &req, nil
}

// Options maps the request onto facade options (the deadline and the
// scheduler are layered on by the server).
func (r *Request) Options() graftmatch.Options {
	// DecodeRequest rejected unknown names, so neither parse can fail here.
	alg, _ := graftmatch.ParseAlgorithm(r.Algorithm)
	init, _ := graftmatch.ParseInitializer(r.Initializer)
	return graftmatch.Options{
		Algorithm:   alg,
		Initializer: init,
		Threads:     r.Threads,
		Seed:        r.Seed,
	}
}

// Deadline resolves the request deadline against the server's default and
// ceiling. A request asking for more than max is clamped, not rejected: the
// server's ceiling is a protection, and a degraded answer at the ceiling
// beats a 400.
func (r *Request) Deadline(now time.Time, def, max time.Duration) time.Time {
	d := time.Duration(r.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = def
	}
	if max > 0 && d > max {
		d = max
	}
	return now.Add(d)
}

// BadRequestError marks a request rejected by validation (a 400, as opposed
// to a shed 429 or an internal 500).
type BadRequestError struct{ Reason string }

func (e *BadRequestError) Error() string { return "serve: bad request: " + e.Reason }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{Reason: fmt.Sprintf(format, args...)}
}

// MatchResponse is the JSON result of /match (and the embedded matching part
// of /decompose).
type MatchResponse struct {
	Instance    string `json:"instance"`
	Algorithm   string `json:"algorithm"`
	Cardinality int64  `json:"cardinality"`
	Complete    bool   `json:"complete"`

	// Degraded marks an answer that is not the freshly computed maximum
	// the request asked for: the run hit its deadline or its engine
	// failed, and the response carries the best available state instead
	// of an error. Source says which: "partial" (this run's consistent
	// partial matching) or "last-good" (the newest complete or partial
	// matching any earlier run produced for this instance).
	Degraded bool   `json:"degraded,omitempty"`
	Source   string `json:"source"` // computed | cache | inflight | last-good | partial

	InitialCardinality int64   `json:"initial_cardinality,omitempty"`
	Phases             int64   `json:"phases,omitempty"`
	RuntimeMS          float64 `json:"runtime_ms"`

	// Engine names the algorithm that produced the matching: the requested
	// one for a computed, cached or partial answer, the floor's own for a
	// last-good answer.
	Engine string `json:"engine,omitempty"`

	MateX []int32 `json:"mate_x,omitempty"`
	MateY []int32 `json:"mate_y,omitempty"`
}

// VerifyResponse is the JSON result of /verify.
type VerifyResponse struct {
	Instance string `json:"instance"`
	Valid    bool   `json:"valid"`
	Maximum  bool   `json:"maximum"`
	Reason   string `json:"reason,omitempty"`
}

// DecomposeResponse is the JSON result of /decompose: the coarse and fine
// Dulmage–Mendelsohn structure (permutations are large, so opt-in via
// mates).
type DecomposeResponse struct {
	Instance string        `json:"instance"`
	Match    MatchResponse `json:"match"`

	HRows        int32   `json:"h_rows"`
	HCols        int32   `json:"h_cols"`
	SSize        int32   `json:"s_size"`
	VRows        int32   `json:"v_rows"`
	VCols        int32   `json:"v_cols"`
	Blocks       int     `json:"blocks"`
	LargestBlock int32   `json:"largest_block"`
	RowPerm      []int32 `json:"row_perm,omitempty"`
	ColPerm      []int32 `json:"col_perm,omitempty"`
}

// SolveResponse is the JSON result of /btfsolve.
type SolveResponse struct {
	Instance  string    `json:"instance"`
	N         int32     `json:"n"`
	Blocks    int       `json:"blocks"`
	RuntimeMS float64   `json:"runtime_ms"`
	X         []float64 `json:"x"`
}

// ErrorResponse is the JSON error shape of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`

	// RetryAfterMS accompanies a 429: how long the client should back off
	// before retrying (also sent as a Retry-After header, in seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
