package tencentrec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are the methods the standard library calls through an
// interface (fmt, errors, encoding, sort, container/heap, io, net/http), so
// a shipped caller need not name them.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true,
	"Len":           true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// testHooks are the exported functions and methods under internal/ that no
// shipped file reaches and that stay anyway, each for the test, benchmark or
// fuzz target named beside it. Keys are package.Func or package.Type.Method.
var testHooks = map[string]string{
	// Fault injectors: the spout's poll-error tests and the chaos soak
	// fail a broker partition's appends and reads, and clear it, with it.
	"tdaccess.Broker.FailPartition": "TestChaosSoakLosesNothing",
	"ldb.Store.Crash":               "TestLDBCrashReopenResumeConformance",
	"ldb.Store.Compact":             "TestCompactMergesAndDropsTombstones",
	"ldb.Store.WaitCompaction":      "TestAutoCompaction",
	"ldb.Store.TableCount":          "TestCompactStreamsNewestVersion",

	// The store's full interface, which the engine conformance suite
	// holds every engine to: no shipped path deletes a key or walks an
	// instance since a revive's catch-up went.
	"tdstore.Client.Delete": "TestClientBasicOps",
	"engine.Memory.Range":   "TestEngineRangeEarlyStop",
	"ldb.Store.Range":       "TestEngineRangeEarlyStop",

	// Observers the soaks and layer tests assert on.
	"stream.RunningTopology.Rebalances": "TestChaosSoakLosesNothing",
	"topology.MemState.Ops":             "TestCombinerReducesStoreWrites",
	"tdaccess.plog.SegmentCount":        "TestSegmentRotation",

	// The stream engine's test knobs and constructors.
	"stream.TopologyBuilder.SetQueueDepth":   "TestTickRoundBacklogKeepsThePeriod",
	"stream.TopologyBuilder.SetLinger":       "TestBatchFlusherCadence",
	"stream.TopologyBuilder.SetMaxBatch":     "TestTicksSkippedCounted",
	"stream.Topology.RunWithErrorHandler":    "TestErrorHandlerInvoked",
	"stream.Topology.SubmitWithErrorHandler": "TestColdRestartChaosSoak",
	"stream.NewTuple":                        "TestUserHistoryEvictsAtEveryCap",

	// References and decoders the codec tests and gates compare against.
	"topology.DecodeAction":          "BenchmarkIngestEdge",
	"window.Counter.UnmarshalBinary": "FuzzCounterEncoded",
	// The route by key, the placement the hashed route must keep.
	"tdstore.RouteTable.InstanceFor": "TestInstanceForMatchesFNVReference",

	// The item feed, until AddItem's write path goes through the log.
	"topology.Builder.WithItemFeed": "TestPipelineCBChain",
	"topology.NewItemFeedSpout":     "TestPipelineCBChain",
}

// TestInternalAPIHasAShippedCaller holds internal/ to what the shipped
// system reaches: every exported function or method there is named, outside
// its own declaration, by some non-test .go file of either module (the
// root's or benchmark/'s), or is a method of a type the root package
// re-exports by alias, or one the standard library calls through an
// interface, or is on testHooks. An entry of testHooks that a shipped file
// now reaches, that no longer exists or whose test is gone fails too.
// Matching is by name, so a dead method that shares its name with a live
// one passes.
func TestInternalAPIHasAShippedCaller(t *testing.T) {
	type decl struct {
		key        string
		file       string
		start, end token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	aliased := map[string]bool{} // package.Type the root package aliases
	tests := map[string]bool{}   // functions the _test.go files declare
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			for _, m := range goFuncDecl.FindAllSubmatch(b, -1) {
				tests[string(m[1])] = true
			}
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if internal && n.Name.IsExported() {
					key := f.Name.Name + "." + n.Name.Name
					if n.Recv != nil {
						key = f.Name.Name + "." + recvType(n.Recv.List[0].Type) + "." + n.Name.Name
					}
					decls = append(decls, decl{key, path, n.Pos(), n.End()})
				}
			case *ast.TypeSpec:
				declared[n.Name] = true
				if sel, ok := n.Type.(*ast.SelectorExpr); ok && n.Assign.IsValid() && f.Name.Name == "tencentrec" {
					if pkg, ok := sel.X.(*ast.Ident); ok {
						aliased[pkg.Name+"."+sel.Sel.Name] = true
					}
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name] = append(uses[n.Name], n.Pos())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := func(d decl) bool {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		for _, p := range uses[name] {
			if p < d.start || p >= d.end {
				return true
			}
		}
		return false
	}
	exists := map[string]bool{}
	var unreached []string
	for _, d := range decls {
		exists[d.key] = true
		parts := strings.Split(d.key, ".")
		if len(parts) == 3 && (aliased[parts[0]+"."+parts[1]] || implicitMethods[parts[2]]) {
			continue
		}
		if hook, ok := testHooks[d.key]; ok {
			if reached(d) {
				t.Errorf("%s (%s) is on testHooks for %s, but a shipped file now reaches it: take it off", d.key, d.file, hook)
			}
			continue
		}
		if !reached(d) {
			unreached = append(unreached, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: no non-test file reaches it; delete it (and the tests that only test it) or add it to testHooks with the test that drives it", u)
	}
	for key, hook := range testHooks {
		if !exists[key] {
			t.Errorf("testHooks names %s, which internal/ no longer declares", key)
		}
		if !tests[hook] {
			t.Errorf("testHooks keeps %s for %s, which no _test.go file declares", key, hook)
		}
	}
}

// recvType is the name of a method's receiver type, without its pointer or
// type parameters.
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
