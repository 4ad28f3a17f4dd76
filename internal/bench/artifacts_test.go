package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runArtifact runs the named entry of Artifacts at its canonical grid,
// logs its report, and returns the fresh artifact.
func runArtifact[T any](t *testing.T, name string) T {
	t.Helper()
	for _, a := range Artifacts {
		if a.Name != name {
			continue
		}
		var sb strings.Builder
		v, err := a.Run(&sb)
		if err != nil {
			t.Fatal(err)
		}
		t.Log("\n" + sb.String())
		return v.(T)
	}
	t.Fatalf("no artifact %q", name)
	panic("unreachable")
}

// TestCommittedArtifacts checks every committed BENCH artifact against
// the table: it must decode strictly into its type and re-encode to the
// same bytes, and a deterministic artifact must match a fresh run (numbers
// within 1e-9 relative, since off amd64 Go may fuse multiply-adds). The
// tests never write an artifact; a stale one fails here instead.
func TestCommittedArtifacts(t *testing.T) {
	for _, a := range Artifacts {
		t.Run(a.Name, func(t *testing.T) {
			rerun := fmt.Sprintf("rerun `go run ./cmd/experiments -exp %s` at the repository root", a.Name)
			raw, err := os.ReadFile(filepath.Join("..", "..", a.File))
			if err != nil {
				t.Fatalf("%v (%s)", err, rerun)
			}
			v := a.New()
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(v); err != nil {
				t.Fatalf("%s does not decode as its artifact type: %v (%s)", a.File, err, rerun)
			}
			if enc, err := encodeArtifact(v); err != nil || !bytes.Equal(enc, raw) {
				t.Fatalf("%s is not in the encoding the writer produces (%s)", a.File, rerun)
			}
			// The fresh-run comparison checks modeled arithmetic, not
			// concurrency: the race detector would only slow it down.
			if !a.Deterministic || testing.Short() || raceEnabled {
				return
			}
			fresh, err := a.Run(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			var got, want any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			buf, err := json.Marshal(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatal(err)
			}
			if err := sameJSON(a.File, got, want); err != nil {
				t.Errorf("committed %s is stale: %v (%s)", a.File, err, rerun)
			}
		})
	}
}

// sameJSON compares decoded JSON values: same structure, equal strings
// and booleans, numbers within 1e-9 relative.
func sameJSON(path string, got, want any) error {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, fresh run has %v", path, got, want)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Errorf("%s: missing key %q", path, k)
			}
			if err := sameJSON(path+"."+k, gv, wv); err != nil {
				return err
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Errorf("%s: got %v, fresh run has %v", path, got, want)
		}
		for i := range w {
			if err := sameJSON(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); err != nil {
				return err
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > 1e-9*math.Max(math.Abs(g), math.Abs(w)) {
			return fmt.Errorf("%s: got %v, fresh run has %v", path, got, want)
		}
	default:
		if got != want {
			return fmt.Errorf("%s: got %v, fresh run has %v", path, got, want)
		}
	}
	return nil
}

func TestSameJSON(t *testing.T) {
	for _, c := range []struct {
		got, want string
		same      bool
	}{
		{`{"a":[1,2],"b":"x"}`, `{"b":"x","a":[1,2]}`, true},
		{`{"a":1}`, `{"a":1.0000000000001}`, true},
		{`{"a":1}`, `{"a":1.001}`, false},
		{`{"a":1}`, `{"a":1,"b":2}`, false},
		{`{"a":1,"c":2}`, `{"a":1,"b":2}`, false},
		{`[1,2]`, `[1,2,3]`, false},
		{`{"a":"x"}`, `{"a":"y"}`, false},
		{`{"a":true}`, `{"a":1}`, false},
	} {
		var got, want any
		if err := json.Unmarshal([]byte(c.got), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(c.want), &want); err != nil {
			t.Fatal(err)
		}
		if err := sameJSON("$", got, want); (err == nil) != c.same {
			t.Errorf("sameJSON(%s, %s) = %v, want same=%v", c.got, c.want, err, c.same)
		}
	}
}

func TestObsPhaseTimers(t *testing.T) {
	for _, r := range runArtifact[[]ObsRow](t, "obs") {
		if len(r.FTPhaseSeconds) == 0 {
			t.Fatalf("N=%d: FT run reported no phase timers", r.N)
		}
		if r.FT <= r.Baseline {
			t.Errorf("N=%d: FT %.4fs not above baseline %.4fs", r.N, r.FT, r.Baseline)
		}
	}
}
