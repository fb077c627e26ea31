package websyn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"websyn/internal/fleet/wire"
	"websyn/internal/match"
	"websyn/internal/rewrite"
	"websyn/internal/rng"
	"websyn/internal/serve"
	"websyn/internal/textnorm"
)

// The names the nested benchmark/ module is compiled against, with the
// signatures it calls them by. A rename, removal or signature change
// fails this file's compilation before the harness ever runs.
var (
	_ func() *match.Dictionary                                                        = match.NewDictionary
	_ func(*match.Dictionary, string, match.Entry)                                    = (*match.Dictionary).Add
	_ func(*match.Dictionary, func(string, []match.Entry))                            = (*match.Dictionary).ForEach
	_ func(*match.Dictionary) []string                                                = (*match.Dictionary).Strings
	_ func(*match.Dictionary, []string) *match.Segmentation                           = (*match.Dictionary).SegmentTokens
	_ func(*match.Dictionary, float64) *match.FuzzyIndex                              = (*match.Dictionary).NewFuzzyIndex
	_ func(*match.Dictionary, *match.PackedFuzzy, float64) (*match.FuzzyIndex, error) = (*match.Dictionary).NewFuzzyIndexFromPacked
	_ func(*match.FuzzyIndex) *match.PackedFuzzy                                      = (*match.FuzzyIndex).Packed
	_ func(*match.FuzzyIndex, string, int) []match.FuzzyHit                           = (*match.FuzzyIndex).Lookup
	_ func(*match.Engine, match.Request, *match.Scratch) (*match.Response, error)     = (*match.Engine).MatchScratch

	_ func(*serve.Snapshot, serve.Config) *serve.Server                                         = serve.NewServer
	_ func(serve.Config) *serve.Registry                                                        = serve.NewRegistry
	_ func(string) (*serve.Snapshot, error)                                                     = serve.ReadSnapshotFile
	_ func(string) (*serve.Snapshot, error)                                                     = serve.OpenSnapshotMapped
	_ func(*serve.Server) *match.Engine                                                         = (*serve.Server).Engine
	_ func(*serve.Server, match.Request, func(*match.Response, bool)) error                     = (*serve.Server).DoView
	_ func(*serve.Server, match.Request, []string) serve.V1Result                               = (*serve.Server).DoItem
	_ func(*serve.Server, *serve.Snapshot, serve.SnapshotMeta) (*serve.Generation, error)       = (*serve.Server).Prepare
	_ func(*serve.Registry, string, *serve.Snapshot, serve.SnapshotMeta) (*serve.Server, error) = (*serve.Registry).Add
	_ func(*serve.Registry, match.Request, []string) serve.V1Result                             = (*serve.Registry).DoItem
	_                                                                                           = serve.V1Response{Count: 0, Results: []serve.V1Result{{Response: nil, Cached: false, Error: ""}}}

	_ func(string) (Dataset, error)                                  = ParseDataset
	_ func(Dataset, MinerConfig, uint64, float64) (*Snapshot, error) = MineSnapshot
	_ func() MinerConfig                                             = DefaultMinerConfig
	_ float64                                                        = DefaultFuzzyMinSim
	_ func(*rewrite.Vocabulary, float64) *rewrite.Rewriter           = rewrite.NewRewriter
	_ func(string) []string                                          = textnorm.Tokenize
	_ func(string) string                                            = textnorm.Normalize

	_ func([]byte, match.Request, []string) []byte  = wire.AppendRequest
	_ func([]byte) (match.Request, []string, error) = wire.DecodeRequest
	_ func([]byte, wire.Result) []byte              = wire.AppendResult
	_ func([]byte) (wire.Result, error)             = wire.DecodeResult
	_ func(io.Writer, []byte) error                 = wire.WriteFrame
	_ func(io.Reader, []byte) ([]byte, error)       = wire.ReadFrame
	_                                               = []any{wire.Magic, wire.OpMatch, wire.OpResult}
	_                                               = wire.Result{Response: nil, Cached: false, Err: ""}
)

// harnessFlags are the command-line flags the benchmark boots its
// servers with.
var harnessFlags = map[string][]string{
	"cmd/matchd/main.go": {"addr", "snapshot", "mmap", "cache", "fleet-addr"},
	"cmd/router/main.go": {"addr", "replica"},
}

// registeredFlags returns the names a command's source registers through
// the flag package: the first string literal argument of every flag.X call.
func registeredFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names[name] = true
				}
				break
			}
		}
		return true
	})
	return names
}

// contractCorpus builds a seeded synthetic catalogue shaped like the
// benchmark's scale tier: every entity owns five strings, three of which
// carry its unique model token. It returns the snapshot literal the
// harness builds and the exact queries with the entity each must name.
func contractCorpus(seed uint64, entities int) (*serve.Snapshot, []string, []int) {
	r := rng.New(seed)
	word := func() string {
		b := make([]byte, 3+r.Intn(6))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = word()
	}
	intents := []string{"tickets2go", "reviews4u", "price2day"}
	dict := match.NewDictionary()
	canon := make([]string, entities)
	syn := make(map[string][]string, entities)
	var queries []string
	var want []int
	for id := range canon {
		brand := vocab[r.Intn(40)]
		words := vocab[r.Intn(len(vocab))] + " " + vocab[r.Intn(len(vocab))]
		model := fmt.Sprintf("%c%c%d", 'a'+r.Intn(26), 'a'+r.Intn(26), 1000+id)
		strs := []string{brand + " " + words + " " + model, words + " " + model, brand + " " + model, brand + " " + words, model}
		for i, s := range strs {
			src := "mined"
			if i == 0 {
				src = "canonical"
			}
			dict.Add(s, match.Entry{EntityID: id, Score: 1 - 0.1*float64(i), Source: src})
		}
		canon[id], syn[strs[0]] = strs[0], strs[1:]
		for _, s := range strs[:3] {
			queries = append(queries, s+" "+intents[r.Intn(len(intents))])
			want = append(want, id)
		}
	}
	snap := &serve.Snapshot{
		Dataset:    "Contract",
		MinSim:     DefaultFuzzyMinSim,
		Canonicals: canon,
		Synonyms:   syn,
		Dict:       dict,
		Fuzzy:      dict.NewFuzzyIndex(DefaultFuzzyMinSim).Packed(),
	}
	return snap, queries, want
}

// resolvesTo reports whether a result names entity id.
func resolvesTo(res serve.V1Result, id int) bool {
	if res.Response == nil {
		return false
	}
	for _, m := range res.Response.Matches {
		if m.EntityID == id {
			return true
		}
	}
	return false
}

// TestHarnessContract runs, in-process and at its smallest size, what the
// benchmark's set-up does before it measures anything: the flags it boots
// servers with still exist, a snapshot literal of the six fields it sets
// survives the file format and the mmap opener, and every exact query
// resolves to its source entity through the Go API and the HTTP handler.
// The harness fails its whole run on one wrong warm-up answer, so a change
// that breaks any of this is caught here first.
func TestHarnessContract(t *testing.T) {
	for path, want := range harnessFlags {
		got := registeredFlags(t, filepath.FromSlash(path))
		for _, name := range want {
			if !got[name] {
				t.Errorf("%s no longer registers -%s", path, name)
			}
		}
	}

	built, queries, want := contractCorpus(7, 800)
	file := filepath.Join(t.TempDir(), "contract.snap")
	if err := built.WriteFile(file); err != nil {
		t.Fatal(err)
	}
	snap, err := serve.OpenSnapshotMapped(file)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := len(snap.Dict.Strings()), len(built.Dict.Strings()); got != exp {
		t.Fatalf("mapped snapshot holds %d strings, built %d", got, exp)
	}
	srv := serve.NewServer(snap, serve.Config{CacheSize: -1})
	gen, err := srv.Prepare(snap, serve.SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Engine().MatchScratch(match.Request{Query: queries[0]}, match.NewScratch()); err != nil {
		t.Fatal(err)
	}

	for i, q := range queries {
		if res := srv.DoItem(match.Request{Query: q}, nil); !resolvesTo(res, want[i]) {
			t.Fatalf("DoItem(%q) = %+v, want entity %d", q, res, want[i])
		}
	}

	const batch = 256
	h := srv.Handler()
	for lo := 0; lo < len(queries); lo += batch {
		hi := min(lo+batch, len(queries))
		items := make([]match.Request, 0, hi-lo)
		for _, q := range queries[lo:hi] {
			items = append(items, match.Request{Query: q})
		}
		body, err := json.Marshal(map[string]any{"queries": items})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/match: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		var resp serve.V1Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != hi-lo {
			t.Fatalf("POST /v1/match: %d results for %d queries", len(resp.Results), hi-lo)
		}
		for j, res := range resp.Results {
			if !resolvesTo(res, want[lo+j]) {
				t.Fatalf("POST /v1/match %q = %+v, want entity %d", queries[lo+j], res, want[lo+j])
			}
		}
	}
}
