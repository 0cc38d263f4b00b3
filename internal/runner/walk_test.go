package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"twig/internal/pipeline"
)

func TestPeekSideEffectFree(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &pipeline.Result{Original: 500, Cycles: 777}
	h := hash("peek")
	c1.Put(h, ResultCodec{}, res)

	// Fresh cache over the same dir: Peek must decode the disk entry
	// without promoting it into memory or counting a hit.
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Peek(h, ResultCodec{})
	if !ok {
		t.Fatal("Peek missed a present disk entry")
	}
	if got := v.(*pipeline.Result); got.Cycles != res.Cycles {
		t.Fatalf("Peek payload Cycles = %v, want %v", got.Cycles, res.Cycles)
	}
	if c2.MemLen() != 0 {
		t.Fatalf("Peek promoted into the memory tier (MemLen %d)", c2.MemLen())
	}
	if c2.stats.DiskHits.Load() != 0 || c2.stats.Misses.Load() != 0 {
		t.Fatal("Peek touched the hit/miss counters")
	}
	if _, ok := c2.Peek(hash("absent"), ResultCodec{}); ok {
		t.Fatal("Peek found an absent entry")
	}
	// Memory tier is consulted too.
	if _, ok := c1.Peek(h, ResultCodec{}); !ok {
		t.Fatal("Peek missed a memory-tier entry")
	}
}

func TestPeekLeavesCorruptEntriesInPlace(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hash("corrupt-peek")
	path := c.path(h)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Peek(h, ResultCodec{}); ok {
		t.Fatal("Peek decoded a corrupt entry")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Peek evicted the corrupt entry: %v", err)
	}
	if c.stats.CorruptEvicted.Load() != 0 {
		t.Fatal("Peek counted an eviction")
	}
}

func TestWalkEnumeratesByKind(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(hash("w1"), ResultCodec{}, &pipeline.Result{Original: 1})
	c.Put(hash("w2"), ResultCodec{}, &pipeline.Result{Original: 2})
	c.Put(hash("w3"), JSONCodec[int]{}, 42)

	// One corrupt file and one stale-version envelope alongside.
	badPath := c.path(hash("w4"))
	os.MkdirAll(filepath.Dir(badPath), 0o755)
	os.WriteFile(badPath, []byte("garbage"), 0o644)
	stale := fmt.Sprintf(`{"format":%d,"sim":"other-sim","codec":"result","hash":%q,"payload":"e30="}`,
		FormatVersion, hash("w5"))
	stalePath := c.path(hash("w5"))
	os.MkdirAll(filepath.Dir(stalePath), 0o755)
	os.WriteFile(stalePath, []byte(stale), 0o644)

	counts := map[string]int{}
	var staleN, corruptN int
	var total int64
	if err := c.Walk(func(e WalkEntry) error {
		switch {
		case e.Err != nil:
			corruptN++
		case e.Stale:
			staleN++
		default:
			counts[e.Codec]++
		}
		total += e.Bytes
		return nil
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	if counts["result"] != 2 || counts["json"] != 1 {
		t.Fatalf("codec counts = %v, want result:2 json:1", counts)
	}
	if staleN != 1 || corruptN != 1 {
		t.Fatalf("stale/corrupt = %d/%d, want 1/1", staleN, corruptN)
	}
	if total <= 0 {
		t.Fatal("Walk reported no bytes")
	}

	// fn errors stop the walk and propagate.
	sentinel := errors.New("stop")
	if err := c.Walk(func(WalkEntry) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Walk error = %v, want sentinel", err)
	}

	// Memory-only caches walk nothing.
	mem, _ := OpenCache("", 0)
	if err := mem.Walk(func(WalkEntry) error { return sentinel }); err != nil {
		t.Fatalf("memory-only Walk = %v, want nil", err)
	}
}

// TestWalkSkipsPayloads pins what Walk decodes: the envelope frame
// only. Walking an entry allocates about the file it reads, and not a
// decoded copy of the payload on top.
func TestWalkSkipsPayloads(t *testing.T) {
	c, err := OpenCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(hash("big"), JSONCodec[[]byte]{}, make([]byte, 4<<20))
	var size int64
	walk := func() {
		if err := c.Walk(func(e WalkEntry) error {
			size = e.Bytes
			return e.Err
		}); err != nil {
			t.Fatal(err)
		}
	}
	walk()
	const walks = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < walks; i++ {
		walk()
	}
	runtime.ReadMemStats(&after)
	perWalk := int64(after.TotalAlloc-before.TotalAlloc) / walks
	// Decoding the payload would add about three quarters of the file
	// (its base64 text) to the one read of the file itself.
	if perWalk > size+size/4 {
		t.Fatalf("Walk allocated %d bytes per walk of a %d-byte entry, want about the file alone", perWalk, size)
	}
}

func TestWalkDeterministicOrder(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.Put(hash(fmt.Sprintf("ord%d", i)), JSONCodec[int]{}, i)
	}
	collect := func() []string {
		var hs []string
		c.Walk(func(e WalkEntry) error {
			hs = append(hs, e.Hash)
			return nil
		})
		return hs
	}
	a, b := collect(), collect()
	if len(a) != 8 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("Walk order unstable or incomplete:\n%v\n%v", a, b)
	}
}

func TestRunnerMemoized(t *testing.T) {
	r := New(Options{Workers: 1})
	if _, ok := r.Memoized("run/absent"); ok {
		t.Fatal("Memoized found an unknown job")
	}
	j := &Job{
		ID:   "run/memoized",
		Kind: KindSim,
		Run:  func(context.Context, []any) (any, error) { return 42, nil },
	}
	if _, err := r.Result(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	v, ok := r.Memoized("run/memoized")
	if !ok || v.(int) != 42 {
		t.Fatalf("Memoized = %v/%v, want 42/true", v, ok)
	}
	// Failed jobs are not reported.
	bad := &Job{
		ID:  "run/failed",
		Run: func(context.Context, []any) (any, error) { return nil, errors.New("boom") },
	}
	r.Result(context.Background(), bad)
	if _, ok := r.Memoized("run/failed"); ok {
		t.Fatal("Memoized surfaced a failed job")
	}
}
