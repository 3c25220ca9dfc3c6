package loop

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flowgen/internal/fault"
	"flowgen/internal/flow"
	"flowgen/internal/synth"
)

func testFlows(n int) (flow.Space, []flow.Flow) {
	space := flow.NewSpace([]string{"a", "b", "c", "d"}, 2)
	return space, space.RandomUnique(rand.New(rand.NewSource(5)), n)
}

func testQoR(i int) synth.QoR {
	return synth.QoR{Area: float64(100 + i), Delay: float64(50 + i), Gates: 10 + i, Ands: 20 + i, Levels: 3}
}

// TestStoreJournalRestart proves the corpus survives a restart with
// order, QoRs and dedup state intact.
func TestStoreJournalRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.journal")
	_, flows := testFlows(8)

	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows[:5] {
		added, err := s.Add(f, testQoR(i))
		if err != nil || !added {
			t.Fatalf("add %d: added=%v err=%v", i, added, err)
		}
	}
	// A duplicate is rejected without growing the corpus or the file.
	if added, err := s.Add(flows[2], testQoR(99)); err != nil || added {
		t.Fatalf("duplicate add: added=%v err=%v", added, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("replayed %d records, want 5", s2.Len())
	}
	gotFlows, gotQoRs := s2.Snapshot()
	for i := range gotFlows {
		if gotFlows[i].Key() != flows[i].Key() {
			t.Fatalf("record %d: flow %q, want %q", i, gotFlows[i].Key(), flows[i].Key())
		}
		if gotQoRs[i] != testQoR(i) {
			t.Fatalf("record %d: qor %+v, want %+v", i, gotQoRs[i], testQoR(i))
		}
	}
	// Dedup state replays too: a restart must not re-admit old flows.
	if added, _ := s2.Add(flows[0], testQoR(0)); added {
		t.Fatal("replayed store re-admitted a journaled flow")
	}
	// And appending after replay keeps working.
	if added, err := s2.Add(flows[5], testQoR(5)); err != nil || !added {
		t.Fatalf("post-replay add: added=%v err=%v", added, err)
	}
}

// TestStoreTornTail simulates a crash mid-append: the journal gains a
// partial trailing record, which replay must discard and truncate so
// subsequent appends land on a clean boundary.
func TestStoreTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.journal")
	_, flows := testFlows(6)

	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows[:3] {
		if _, err := s.Add(f, testQoR(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash mid-write: a length prefix promising 200 bytes, followed by
	// only a few.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xC8, 0x01, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("replayed %d records through a torn tail, want 3", s2.Len())
	}
	if st, _ := os.Stat(path); st.Size() != good.Size() {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", st.Size(), good.Size())
	}
	// The next append must decode on the following restart.
	if added, err := s2.Add(flows[3], testQoR(3)); err != nil || !added {
		t.Fatalf("post-truncation add: added=%v err=%v", added, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 4 {
		t.Fatalf("final replay: %d records, want 4", s3.Len())
	}
}

// TestStoreInMemory checks the pathless (bootstrap) mode: fully
// functional, nothing on disk.
func TestStoreInMemory(t *testing.T) {
	s, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, flows := testFlows(2)
	if added, err := s.Add(flows[0], testQoR(0)); err != nil || !added {
		t.Fatalf("add: added=%v err=%v", added, err)
	}
	if !s.Has(flows[0]) || s.Has(flows[1]) {
		t.Fatal("Has does not reflect the corpus")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// fastRetry is a RetryConfig sized for tests: real backoff shape,
// millisecond scale.
func fastRetry() RetryConfig {
	return RetryConfig{Attempts: 3, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		RecoverEvery: 5 * time.Millisecond}
}

// TestStoreRetriesTransientJournalError injects journal write faults
// that clear before the retry budget runs out: every sample must end
// up persisted, with the retries visible in the counters and no
// degradation.
func TestStoreRetriesTransientJournalError(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "labels.journal")
	_, flows := testFlows(4)
	s, err := OpenStoreWith(path, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	// Two injected failures, then writes succeed: inside Attempts=3.
	if err := fault.Set("loop.journal.append=error,n=2", 1); err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		if added, err := s.Add(f, testQoR(i)); err != nil || !added {
			t.Fatalf("add %d: added=%v err=%v", i, added, err)
		}
	}
	if s.Degraded() {
		t.Fatal("transient faults degraded the store")
	}
	if s.JournalRetries() < 2 {
		t.Fatalf("JournalRetries = %d, want ≥2", s.JournalRetries())
	}
	if s.Persisted() != len(flows) {
		t.Fatalf("Persisted = %d, want %d", s.Persisted(), len(flows))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(flows) {
		t.Fatalf("replayed %d records, want %d", s2.Len(), len(flows))
	}
}

// TestStoreDegradesAndRecovers exhausts the retry budget: the store
// must degrade to memory-only labeling (still accepting samples), then
// recover automatically once the fault clears — reopening the journal
// and replaying the unpersisted tail so nothing accepted is lost.
func TestStoreDegradesAndRecovers(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "labels.journal")
	_, flows := testFlows(8)
	s, err := OpenStoreWith(path, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	// Two good samples on disk first.
	for i, f := range flows[:2] {
		if _, err := s.Add(f, testQoR(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Persistent fault: every append attempt fails.
	if err := fault.Set("loop.journal.append=error", 1); err != nil {
		t.Fatal(err)
	}
	if added, err := s.Add(flows[2], testQoR(2)); err != nil || !added {
		t.Fatalf("degraded add must still accept: added=%v err=%v", added, err)
	}
	if !s.Degraded() {
		t.Fatal("store did not degrade after exhausting retries")
	}
	// Samples keep accumulating in memory while degraded.
	if added, err := s.Add(flows[3], testQoR(3)); err != nil || !added {
		t.Fatalf("add while degraded: added=%v err=%v", added, err)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Persisted() != 2 {
		t.Fatalf("Persisted = %d, want 2", s.Persisted())
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync on a degraded store must report unpersisted samples")
	}
	// Fault clears; after RecoverEvery the next add triggers recovery.
	fault.Reset()
	time.Sleep(10 * time.Millisecond)
	if added, err := s.Add(flows[4], testQoR(4)); err != nil || !added {
		t.Fatalf("recovery add: added=%v err=%v", added, err)
	}
	// Recovery replays the tail; the triggering add's record lands on
	// the next persist round, so give it one more.
	if s.Degraded() {
		t.Fatal("store still degraded after the fault cleared")
	}
	if _, err := s.Add(flows[5], testQoR(5)); err != nil {
		t.Fatal(err)
	}
	if s.Persisted() != s.Len() {
		t.Fatalf("Persisted = %d, Len = %d: recovery lost the tail", s.Persisted(), s.Len())
	}
	if s.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", s.Recoveries())
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The journal now holds every accepted sample, in insertion order.
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gotFlows, _ := s2.Snapshot()
	if len(gotFlows) != 6 {
		t.Fatalf("replayed %d records, want 6", len(gotFlows))
	}
	for i := range gotFlows {
		if gotFlows[i].Key() != flows[i].Key() {
			t.Fatalf("record %d out of order after recovery", i)
		}
	}
}

// TestStoreTornAttemptNeverCorrupts interleaves failing and succeeding
// appends: a failed attempt marks the tail dirty and the next write
// rewinds to the good boundary, so the journal always replays to
// exactly the persisted prefix — garbage can never land between
// records.
func TestStoreTornAttemptNeverCorrupts(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "labels.journal")
	_, flows := testFlows(10)
	s, err := OpenStoreWith(path, RetryConfig{Attempts: 1, Backoff: time.Millisecond,
		MaxBackoff: time.Millisecond, RecoverEvery: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	// Every third append attempt fails (deterministically, p=1 with
	// interleaved n/after windows is fiddly — use a fresh single-shot
	// rule per failure instead).
	for i, f := range flows {
		if i%3 == 1 {
			if err := fault.Set("loop.journal.append=error,n=1", int64(i)); err != nil {
				t.Fatal(err)
			}
		} else {
			fault.Reset()
		}
		if added, err := s.Add(f, testQoR(i)); err != nil || !added {
			t.Fatalf("add %d: added=%v err=%v", i, added, err)
		}
	}
	fault.Reset()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gotFlows, _ := s2.Snapshot()
	if len(gotFlows) != len(flows) {
		t.Fatalf("replayed %d records, want %d", len(gotFlows), len(flows))
	}
	for i := range gotFlows {
		if gotFlows[i].Key() != flows[i].Key() {
			t.Fatalf("record %d out of order", i)
		}
	}
}

// TestStoreConcurrentAddsKeepJournalOrder adds overlapping flows from
// several goroutines at once, with one journal append in four failing
// once, and requires the journal to replay exactly the corpus, in
// Snapshot order: journal I/O runs outside the corpus lock, so each
// writer must still append the corpus past the persisted prefix in
// corpus order.
func TestStoreConcurrentAddsKeepJournalOrder(t *testing.T) {
	defer fault.Reset()
	path := filepath.Join(t.TempDir(), "labels.journal")
	space, flows := testFlows(40)
	s, err := OpenStoreWith(path, fastRetry())
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Set("loop.journal.append=error,p=0.25", 3); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range flows {
				j := (i*7 + w*11) % len(flows) // every writer covers every flow
				if _, err := s.Add(flows[j], testQoR(j)); err != nil {
					t.Error(err)
				}
				s.Has(flows[(j+1)%len(flows)])
			}
		}()
	}
	wg.Wait()
	fault.Reset()
	if s.Degraded() {
		t.Fatal("a single failed attempt per record degraded the store")
	}
	want, wantQoRs := s.Snapshot()
	if len(want) != len(flows) || s.Persisted() != len(flows) {
		t.Fatalf("corpus %d, persisted %d; want %d each", len(want), s.Persisted(), len(flows))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, gotQoRs := s2.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("journal replays %d records, corpus holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String(space) != want[i].String(space) || gotQoRs[i] != wantQoRs[i] {
			t.Fatalf("record %d: journal %s, corpus %s", i, got[i].String(space), want[i].String(space))
		}
	}
}
