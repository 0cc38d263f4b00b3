package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// groupMembers returns n KindSim members with distinct IDs and hashes.
func groupMembers(n int) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{
			ID:    fmt.Sprintf("run/m%d", i),
			Kind:  KindSim,
			Hash:  fmt.Sprintf("%064d", i+1),
			Codec: JSONCodec[int]{},
		}
	}
	return ms
}

// groupRun computes member payloads as their index in need, offset so
// payloads are distinguishable across tests, and counts invocations.
func groupRun(calls *atomic.Int64, base int) func(context.Context, []any, []Member) (map[string]any, error) {
	return func(_ context.Context, _ []any, need []Member) (map[string]any, error) {
		calls.Add(1)
		out := make(map[string]any, len(need))
		for i, m := range need {
			out[m.ID] = base + i
		}
		return out, nil
	}
}

func TestGroupResultColdThenWarm(t *testing.T) {
	cache, err := OpenCache(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	members := groupMembers(3)
	var depRuns, runs atomic.Int64
	dep := &Job{ID: "dep", Run: func(context.Context, []any) (any, error) {
		depRuns.Add(1)
		return "built", nil
	}}

	r := New(Options{Workers: 2, Cache: cache})
	out, err := r.GroupResult(context.Background(), members, []*Job{dep}, groupRun(&runs, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out["run/m0"] != 100 || out["run/m2"] != 102 {
		t.Fatalf("cold group payloads: %v", out)
	}
	if runs.Load() != 1 || depRuns.Load() != 1 {
		t.Fatalf("cold group: run called %d times, dep %d times; want 1, 1", runs.Load(), depRuns.Load())
	}
	st := r.Stats()
	// Done counts the three members plus the dep job itself.
	if st.SimRuns != 3 || st.SimHits != 0 || st.Done != 4 {
		t.Fatalf("cold stats: %+v", st)
	}

	// A fresh runner over the same cache peels every member: the run
	// and its dependency DAG never execute.
	r2 := New(Options{Workers: 2, Cache: cache})
	depRuns.Store(0)
	runs.Store(0)
	out2, err := r2.GroupResult(context.Background(), members, []*Job{dep}, groupRun(&runs, 999))
	if err != nil {
		t.Fatal(err)
	}
	if out2["run/m1"] != 101 {
		t.Fatalf("warm payload: %v", out2["run/m1"])
	}
	if runs.Load() != 0 || depRuns.Load() != 0 {
		t.Fatalf("warm group executed: run %d, dep %d", runs.Load(), depRuns.Load())
	}
	st2 := r2.Stats()
	// Done counts executions, so a fully peeled group adds none.
	if st2.SimRuns != 0 || st2.SimHits != 3 || st2.Done != 0 {
		t.Fatalf("warm stats: %+v", st2)
	}
}

func TestGroupResultPartialPeel(t *testing.T) {
	cache, err := OpenCache(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	members := groupMembers(3)
	cache.Put(members[1].Hash, members[1].Codec, 777) // pre-warm the middle member

	var needSeen []string
	r := New(Options{Workers: 1, Cache: cache})
	out, err := r.GroupResult(context.Background(), members, nil,
		func(_ context.Context, _ []any, need []Member) (map[string]any, error) {
			res := make(map[string]any)
			for i, m := range need {
				needSeen = append(needSeen, m.ID)
				res[m.ID] = 200 + i
			}
			return res, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(needSeen, " ") != "run/m0 run/m2" {
		t.Fatalf("peeled group computed %v, want only m0 m2", needSeen)
	}
	if out["run/m1"] != 777 {
		t.Fatalf("peeled member payload %v, want 777", out["run/m1"])
	}
	st := r.Stats()
	if st.SimRuns != 2 || st.SimHits != 1 {
		t.Fatalf("partial-peel stats: %+v", st)
	}
}

// TestGroupResultMemoInterop: members share the in-process memo with
// individual jobs in both directions.
func TestGroupResultMemoInterop(t *testing.T) {
	members := groupMembers(2)
	var soloRuns, runs atomic.Int64
	r := New(Options{Workers: 2})

	solo := &Job{ID: members[0].ID, Kind: KindSim, Run: func(context.Context, []any) (any, error) {
		soloRuns.Add(1)
		return 42, nil
	}}
	if _, err := r.Result(context.Background(), solo); err != nil {
		t.Fatal(err)
	}

	out, err := r.GroupResult(context.Background(), members, nil,
		func(_ context.Context, _ []any, need []Member) (map[string]any, error) {
			runs.Add(1)
			if len(need) != 1 || need[0].ID != members[1].ID {
				return nil, fmt.Errorf("need = %v, want only %s", need, members[1].ID)
			}
			return map[string]any{need[0].ID: 43}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out[members[0].ID] != 42 || out[members[1].ID] != 43 {
		t.Fatalf("interop payloads: %v", out)
	}

	// And the reverse: an individual Result for a group-computed member
	// replays the memo without running.
	again := &Job{ID: members[1].ID, Kind: KindSim, Run: func(context.Context, []any) (any, error) {
		return nil, errors.New("must not run")
	}}
	v, err := r.Result(context.Background(), again)
	if err != nil || v != 43 {
		t.Fatalf("memo replay: v=%v err=%v", v, err)
	}
	if soloRuns.Load() != 1 || runs.Load() != 1 {
		t.Fatalf("run counts: solo %d group %d", soloRuns.Load(), runs.Load())
	}
}

func TestGroupResultMissingPayload(t *testing.T) {
	members := groupMembers(2)
	r := New(Options{Workers: 1})
	_, err := r.GroupResult(context.Background(), members, nil,
		func(_ context.Context, _ []any, need []Member) (map[string]any, error) {
			return map[string]any{need[0].ID: 1}, nil // drops the second member
		})
	if err == nil || !strings.Contains(err.Error(), "no payload") {
		t.Fatalf("missing payload: err=%v", err)
	}
}

func TestGroupResultRunError(t *testing.T) {
	members := groupMembers(2)
	r := New(Options{Workers: 1})
	boom := errors.New("boom")
	_, err := r.GroupResult(context.Background(), members, nil,
		func(context.Context, []any, []Member) (map[string]any, error) {
			return nil, boom
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("group error: %v", err)
	}
	// Failed members are memoized as failed, not left hanging.
	v, err := r.Result(context.Background(), &Job{ID: members[0].ID,
		Run: func(context.Context, []any) (any, error) { return nil, errors.New("must not run") }})
	if v != nil || err == nil || !errors.Is(err, boom) {
		t.Fatalf("failed member memo: v=%v err=%v", v, err)
	}
	if st := r.Stats(); st.Failed != 2 {
		t.Fatalf("failed count %d, want 2", st.Failed)
	}
}
