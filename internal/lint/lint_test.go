package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureRun lints the testdata/src tree and returns findings keyed as
// "relpath:line [rule]".
func fixtureRun(t *testing.T, patterns ...string) ([]Diagnostic, []string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Root: root}
	diags, err := r.Run(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(diags))
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		keys = append(keys, fmt.Sprintf("%s:%d [%s]", filepath.ToSlash(rel), d.Pos.Line, d.Rule))
	}
	return diags, keys
}

// TestFixtureFindings pins the exact finding set over the fixture tree: one
// entry per seeded violation, nothing for the good patterns (collect-then-
// sort, prefixed panics, typed errors, documented names, binaries reading
// the wall clock).
func TestFixtureFindings(t *testing.T) {
	want := []string{
		"internal/allowcase/allowcase.go:17 [allow]",
		"internal/allowcase/allowcase.go:18 [nondeterminism]",
		"internal/allowcase/allowcase.go:24 [allow]",
		"internal/allowcase/allowcase.go:25 [nondeterminism]",
		"internal/annot/annot.go:9 [allow]",
		"internal/annot/annot.go:15 [allow]",
		"internal/clock/virtual.go:9 [nondeterminism]",
		"internal/cluster/cluster.go:31 [barriersafe]",
		"internal/cluster/cluster.go:40 [barriersafe]",
		"internal/cluster/cluster.go:62 [barriersafe]",
		"internal/cluster/cluster.go:68 [barriersafe]",
		"internal/cluster/cluster.go:84 [barriersafe]",
		"internal/hotalloc/hotalloc.go:16 [hotalloc]",
		"internal/hotalloc/hotalloc.go:30 [hotalloc]",
		"internal/hotalloc/hotalloc.go:45 [hotalloc]",
		"internal/hotalloc/hotalloc.go:59 [hotalloc]",
		"internal/hotalloc/hotalloc.go:66 [hotalloc]",
		"internal/maporder/maporder.go:11 [maporder]",
		"internal/maporder/maporder.go:29 [maporder]",
		"internal/nondet/nondet.go:6 [nondeterminism]",
		"internal/nondet/nondet.go:11 [nondeterminism]",
		"internal/nondet/nondet.go:14 [nondeterminism]",
		"internal/panicmsg/panicmsg.go:16 [panicmsg]",
		"internal/panicmsg/panicmsg.go:21 [panicmsg]",
		"internal/panicmsg/panicmsg.go:26 [panicmsg]",
		"internal/panicmsg/panicmsg.go:31 [panicmsg]",
		"internal/policy/reg.go:13 [registrydoc]",
		"internal/policy/reg.go:14 [registrydoc]",
		"internal/rngflow/rngflow.go:7 [rngflow]",
		"internal/rngflow/rngflow.go:9 [rngflow]",
		"internal/rngflow/rngflow.go:35 [rngflow]",
		"internal/rngflow/rngflow.go:43 [rngflow]",
		"internal/rngflow/rngflow.go:49 [rngflow]",
		"internal/rngflow/rngflow.go:63 [rngflow]",
		"internal/sched/floatcmp.go:7 [floatcmp]",
		"internal/sched/floatcmp.go:21 [floatcmp]",
		"internal/spawn/spawn.go:16 [goroutines]",
		"internal/spawn/spawn.go:53 [goroutines]",
	}
	_, got := fixtureRun(t, "./...")
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d\ngot:\n  %s", len(got), len(want), strings.Join(got, "\n  "))
	}
	gotSet := make(map[string]bool, len(got))
	for _, k := range got {
		gotSet[k] = true
	}
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("missing expected finding %s", w)
		}
		delete(gotSet, w)
	}
	for k := range gotSet {
		t.Errorf("unexpected finding %s", k)
	}
}

// TestAllowSuppression distinguishes "suppressed" from "not detected": the
// justified waiver in allowcase.Waived silences its time.Now, while the
// identical calls under a bogus-rule allow and a reasonless allow are still
// reported. A valid waiver must also produce no [allow] diagnostic.
func TestAllowSuppression(t *testing.T) {
	_, got := fixtureRun(t, "internal/allowcase")
	keys := strings.Join(got, "\n")
	if strings.Contains(keys, "allowcase.go:11") {
		t.Errorf("time.Now under a justified allow was reported:\n%s", keys)
	}
	if strings.Contains(keys, "allowcase.go:10 [allow]") {
		t.Errorf("well-formed allow comment was itself reported:\n%s", keys)
	}
	for _, line := range []string{"allowcase.go:18 [nondeterminism]", "allowcase.go:25 [nondeterminism]"} {
		if !strings.Contains(keys, line) {
			t.Errorf("finding under a malformed allow must survive; missing %s in:\n%s", line, keys)
		}
	}
}

// TestMalformedAllowMessages pins the wording of the two allow failure
// modes, so the escape hatch stays self-explaining.
func TestMalformedAllowMessages(t *testing.T) {
	diags, _ := fixtureRun(t, "internal/allowcase")
	var unknown, reasonless bool
	for _, d := range diags {
		if d.Rule != RuleAllow {
			continue
		}
		switch {
		case strings.Contains(d.Msg, `unknown rule "bogusrule"`):
			unknown = true
		case strings.Contains(d.Msg, "needs a reason"):
			reasonless = true
		}
	}
	if !unknown {
		t.Error("allow naming an unknown rule was not reported as an error")
	}
	if !reasonless {
		t.Error("allow without a reason was not reported as an error")
	}
}

// TestSingleDirPattern checks that a bare directory pattern (no /...) lints
// exactly that package.
func TestSingleDirPattern(t *testing.T) {
	_, got := fixtureRun(t, "internal/sched")
	for _, k := range got {
		if !strings.HasPrefix(k, "internal/sched/") {
			t.Errorf("single-dir pattern leaked finding %s", k)
		}
	}
	if len(got) != 2 {
		t.Errorf("got %d findings for internal/sched, want 2:\n  %s", len(got), strings.Join(got, "\n  "))
	}
}

// TestRngFlowRule covers the dataflow rule's positive and negative space:
// package-level streams, loop and non-loop constant mints, zero-value draws
// (including through Split, which propagates provenance), while injected
// parameters, constructor fields, Reseed and the waived mint stay silent.
func TestRngFlowRule(t *testing.T) {
	diags, got := fixtureRun(t, "internal/rngflow")
	keys := strings.Join(got, "\n")
	for _, w := range []string{
		"rngflow.go:7 [rngflow]",  // var global = rng.New(1)
		"rngflow.go:9 [rngflow]",  // var cached *rng.Source
		"rngflow.go:35 [rngflow]", // rng.New(42) inside a loop
		"rngflow.go:43 [rngflow]", // rng.New(7) constant mint
		"rngflow.go:49 [rngflow]", // draw on zero-value stream
		"rngflow.go:63 [rngflow]", // draw on Split of a zero stream
	} {
		if !strings.Contains(keys, w) {
			t.Errorf("missing rngflow finding %s in:\n%s", w, keys)
		}
	}
	if n := strings.Count(keys, "[rngflow]"); n != 6 {
		t.Errorf("got %d rngflow findings, want 6 (good/reseeded/waived must stay silent):\n%s", n, keys)
	}
	var loopMsg, zeroMsg bool
	for _, d := range diags {
		if d.Pos.Line == 35 && strings.Contains(d.Msg, "inside a loop") {
			loopMsg = true
		}
		if d.Pos.Line == 49 && strings.Contains(d.Msg, "zero-value rng stream") {
			zeroMsg = true
		}
	}
	if !loopMsg {
		t.Error("loop mint should carry the hoist-and-Split message")
	}
	if !zeroMsg {
		t.Error("zero draw should name the zero-value stream")
	}
}

// TestHotAllocRule: the five allocating constructs are flagged in annotated
// functions; reslice reuse, constant make, capture-free literals,
// unannotated functions and the waived append stay silent.
func TestHotAllocRule(t *testing.T) {
	diags, got := fixtureRun(t, "internal/hotalloc")
	keys := strings.Join(got, "\n")
	for _, w := range []string{
		"hotalloc.go:16 [hotalloc]", // growing append
		"hotalloc.go:30 [hotalloc]", // non-constant make
		"hotalloc.go:45 [hotalloc]", // capturing closure
		"hotalloc.go:59 [hotalloc]", // string concat
		"hotalloc.go:66 [hotalloc]", // interface conversion
	} {
		if !strings.Contains(keys, w) {
			t.Errorf("missing hotalloc finding %s in:\n%s", w, keys)
		}
	}
	if n := strings.Count(keys, "[hotalloc]"); n != 5 {
		t.Errorf("got %d hotalloc findings, want 5:\n%s", n, keys)
	}
	var captureNames bool
	for _, d := range diags {
		if d.Pos.Line == 45 && strings.Contains(d.Msg, "captures n") {
			captureNames = true
		}
	}
	if !captureNames {
		t.Error("closure finding should name the captured variables")
	}
}

// TestGoroutinesRule: spawns outside the allowlist and the fall-through
// lock leak are flagged; defer pairing, same-block pairing, deferred-closure
// unlock, the waived spawn, and the allowlisted workpool package stay silent.
func TestGoroutinesRule(t *testing.T) {
	_, got := fixtureRun(t, "internal/spawn", "internal/workpool")
	keys := strings.Join(got, "\n")
	for _, w := range []string{
		"spawn.go:16 [goroutines]", // go outside allowlist
		"spawn.go:53 [goroutines]", // lock leak on fall-through
	} {
		if !strings.Contains(keys, w) {
			t.Errorf("missing goroutines finding %s in:\n%s", w, keys)
		}
	}
	if n := strings.Count(keys, "[goroutines]"); n != 2 {
		t.Errorf("got %d goroutines findings, want 2:\n%s", n, keys)
	}
	if strings.Contains(keys, "pool.go") {
		t.Errorf("allowlisted workpool package must stay silent:\n%s", keys)
	}
}

// TestGoroutineDirsConfig: Runner.GoroutineDirs extends the sanctioned-
// spawner set (rule configuration, not a waiver): the spawn finding
// disappears, while lock-balance checking in the same package is unaffected.
func TestGoroutineDirsConfig(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Root: root, GoroutineDirs: []string{"internal/spawn/"}}
	diags, err := r.Run("internal/spawn")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range diags {
		keys = append(keys, fmt.Sprintf("%s:%d [%s]", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
	}
	joined := strings.Join(keys, "\n")
	if strings.Contains(joined, "spawn.go:16") {
		t.Errorf("configured spawner dir must not be flagged:\n%s", joined)
	}
	if !strings.Contains(joined, "spawn.go:53 [goroutines]") {
		t.Errorf("lock-balance finding must survive the spawner config:\n%s", joined)
	}
	// The diagnostic for unsanctioned spawns must name configured extras.
	r2 := &Runner{Root: root, GoroutineDirs: []string{"internal/other"}}
	diags2, err := r2.Run("internal/spawn")
	if err != nil {
		t.Fatal(err)
	}
	named := false
	for _, d := range diags2 {
		if d.Rule == RuleGoroutines && strings.Contains(d.Msg, "internal/other") {
			named = true
		}
	}
	if !named {
		t.Error("goroutines diagnostic should list the configured sanctioned dirs")
	}
}

// TestBarrierSafeRule: sharded access outside a barrier function and inside
// a closure are flagged with distinct messages, and so are a shard method
// reaching into another shard, a shard method's receiver captured by a
// closure, and a shard method called outside a barrier. Barrier-phase
// access, the waived closures and a shard method touching its own receiver
// stay silent.
func TestBarrierSafeRule(t *testing.T) {
	diags, got := fixtureRun(t, "internal/cluster")
	keys := strings.Join(got, "\n")
	if n := strings.Count(keys, "[barriersafe]"); n != 5 {
		t.Errorf("got %d barriersafe findings, want 5:\n%s", n, keys)
	}
	const outsideMsg, closureMsg = "outside a //qos:barrier function", "closures do not inherit"
	want := map[int]string{31: outsideMsg, 40: closureMsg, 62: outsideMsg, 68: closureMsg, 84: outsideMsg}
	for _, d := range diags {
		if d.Rule != RuleBarrierSafe {
			continue
		}
		if msg, ok := want[d.Pos.Line]; ok && !strings.Contains(d.Msg, msg) {
			t.Errorf("line %d: message %q should contain %q", d.Pos.Line, d.Msg, msg)
		}
		delete(want, d.Pos.Line)
	}
	for line, msg := range want {
		t.Errorf("line %d: no finding (want %q)", line, msg)
	}
}

// TestAnnotationTypos: a misspelled or detached //qos: marker is an [allow]
// diagnostic — and the misspelled function is genuinely not gated, so its
// append produces no hotalloc finding.
func TestAnnotationTypos(t *testing.T) {
	diags, got := fixtureRun(t, "internal/annot")
	keys := strings.Join(got, "\n")
	if strings.Contains(keys, "[hotalloc]") {
		t.Errorf("misspelled annotation must not gate the function:\n%s", keys)
	}
	var unknown, detached bool
	for _, d := range diags {
		if d.Rule != RuleAllow {
			continue
		}
		if strings.Contains(d.Msg, `unknown //qos: annotation "hotpth"`) {
			unknown = true
		}
		if strings.Contains(d.Msg, "not attached to a function declaration") {
			detached = true
		}
	}
	if !unknown {
		t.Error("unknown //qos: marker was not reported")
	}
	if !detached {
		t.Error("detached //qos: marker was not reported")
	}
}

// TestParallelRunStable: the parallel per-package run must produce an
// identical diagnostic stream on every invocation — same findings, same
// order — regardless of worker interleaving.
func TestParallelRunStable(t *testing.T) {
	_, first := fixtureRun(t, "./...")
	for i := 0; i < 5; i++ {
		_, again := fixtureRun(t, "./...")
		if strings.Join(again, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d diverged:\nfirst:\n  %s\nagain:\n  %s", i, strings.Join(first, "\n  "), strings.Join(again, "\n  "))
		}
	}
}

// TestSelfHost lints the real repository: the tree this test ships in must
// be clean, the same gate CI enforces with `go run ./cmd/qoslint ./...`.
func TestSelfHost(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Root: root}
	diags, err := r.Run("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository is not qoslint-clean: %s", d)
	}
}
