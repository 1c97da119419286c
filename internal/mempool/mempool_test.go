package mempool

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"diablo/internal/types"
)

func tx(sender byte, nonce uint64) *types.Transaction {
	return &types.Transaction{From: types.Address{sender}, Nonce: nonce, GasLimit: 21000}
}

func gasOf(t *types.Transaction) uint64 { return t.GasLimit }

func TestFIFOTake(t *testing.T) {
	p := New(Policy{}, nil)
	for i := uint64(0); i < 5; i++ {
		if err := p.Add(tx(1, i), 0, time.Duration(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Take(0, time.Minute, 3, 0, nil)
	if len(got) != 3 {
		t.Fatalf("took %d, want 3", len(got))
	}
	for i, x := range got {
		if x.Nonce != uint64(i) {
			t.Fatalf("not FIFO: %d at %d", x.Nonce, i)
		}
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	rest := p.Take(0, time.Minute, 0, 0, nil)
	if len(rest) != 2 || rest[0].Nonce != 3 {
		t.Fatalf("remaining take wrong: %v", rest)
	}
}

func TestDuplicateRejected(t *testing.T) {
	p := New(Policy{}, nil)
	a := tx(1, 1)
	if err := p.Add(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(a, 0, 0); err != ErrDuplicate {
		t.Fatalf("err = %v, want duplicate", err)
	}
	if !p.Contains(a.ID()) {
		t.Fatal("Contains false for pooled tx")
	}
}

func TestCapacityBound(t *testing.T) {
	p := New(Policy{Capacity: 3}, nil)
	for i := uint64(0); i < 3; i++ {
		if err := p.Add(tx(1, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(tx(1, 99), 0, 0); err != ErrPoolFull {
		t.Fatalf("err = %v, want pool full", err)
	}
	if p.Dropped() != 1 || p.Accepted() != 3 {
		t.Fatalf("dropped=%d accepted=%d", p.Dropped(), p.Accepted())
	}
	// Taking frees capacity.
	p.Take(0, time.Minute, 1, 0, nil)
	if err := p.Add(tx(1, 99), 0, 0); err != nil {
		t.Fatalf("add after take: %v", err)
	}
}

func TestPerSenderCapDiem(t *testing.T) {
	// Diem: at most 100 pending transactions per signer.
	p := New(Policy{PerSender: 100}, nil)
	for i := uint64(0); i < 100; i++ {
		if err := p.Add(tx(1, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(tx(1, 100), 0, 0); err != ErrSenderCap {
		t.Fatalf("err = %v, want sender cap", err)
	}
	// A different sender is unaffected.
	if err := p.Add(tx(2, 0), 0, 0); err != nil {
		t.Fatalf("other sender blocked: %v", err)
	}
	// Removing frees the sender's budget.
	p.Take(0, time.Minute, 1, 0, nil)
	if err := p.Add(tx(1, 100), 0, 0); err != nil {
		t.Fatalf("add after free: %v", err)
	}
}

func TestUnboundedGrowth(t *testing.T) {
	// The IBFT "never drop" policy: everything is admitted.
	p := New(Policy{}, nil)
	for i := 0; i < 50000; i++ {
		if err := p.Add(tx(byte(i%200), uint64(i)), 0, 0); err != nil {
			t.Fatalf("unbounded pool rejected tx %d: %v", i, err)
		}
	}
	if p.Len() != 50000 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestGasLimitedTake(t *testing.T) {
	p := New(Policy{}, nil)
	for i := uint64(0); i < 10; i++ {
		p.Add(tx(1, i), 0, 0)
	}
	got := p.Take(0, time.Minute, 0, 63000, gasOf) // 3 x 21000
	if len(got) != 3 {
		t.Fatalf("took %d txs, want 3 within gas limit", len(got))
	}
	if p.Len() != 7 {
		t.Fatalf("Len = %d, want 7", p.Len())
	}
}

func TestOversizedTxDropped(t *testing.T) {
	p := New(Policy{}, nil)
	big := tx(1, 0)
	big.GasLimit = 50_000_000
	p.Add(big, 0, 0)
	p.Add(tx(1, 1), 0, 0)
	got := p.Take(0, time.Minute, 0, 8_000_000, gasOf)
	if len(got) != 1 || got[0].Nonce != 1 {
		t.Fatalf("oversized tx not skipped: %v", got)
	}
	if p.Len() != 0 {
		t.Fatal("oversized tx should be dropped, not kept")
	}
	if p.Dropped() != 1 {
		t.Fatalf("Dropped = %d", p.Dropped())
	}
}

func TestVisibilityDelay(t *testing.T) {
	// Transactions originating at node 1 take 500ms to reach node 0.
	vis := func(origin, viewer int) time.Duration {
		if origin == viewer {
			return 0
		}
		return 500 * time.Millisecond
	}
	p := New(Policy{}, vis)
	p.Add(tx(1, 0), 1, time.Second)

	if got := p.Take(0, time.Second, 0, 0, nil); len(got) != 0 {
		t.Fatal("tx visible before gossip delay")
	}
	if got := p.Take(1, time.Second, 0, 0, nil); len(got) != 1 {
		t.Fatal("tx not visible at its origin")
	}
	p.Add(tx(1, 1), 1, time.Second)
	if got := p.Take(0, 1500*time.Millisecond, 0, 0, nil); len(got) != 1 {
		t.Fatal("tx not visible after gossip delay")
	}
}

func TestVisibilitySkipPreservesOrder(t *testing.T) {
	vis := func(origin, viewer int) time.Duration {
		if origin == viewer {
			return 0
		}
		return time.Hour
	}
	p := New(Policy{}, vis)
	p.Add(tx(1, 0), 9, 0) // invisible to node 0
	p.Add(tx(1, 1), 0, 0) // visible
	p.Add(tx(1, 2), 9, 0) // invisible
	p.Add(tx(1, 3), 0, 0) // visible
	got := p.Take(0, time.Second, 0, 0, nil)
	if len(got) != 2 || got[0].Nonce != 1 || got[1].Nonce != 3 {
		t.Fatalf("visible take wrong: %+v", got)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2 invisible left", p.Len())
	}
	// The skipped entries are still takeable at their origin.
	got = p.Take(9, time.Second, 0, 0, nil)
	if len(got) != 2 || got[0].Nonce != 0 || got[1].Nonce != 2 {
		t.Fatalf("origin take wrong: %+v", got)
	}
}

func TestRemoveCommitted(t *testing.T) {
	p := New(Policy{}, nil)
	var txs []*types.Transaction
	for i := uint64(0); i < 5; i++ {
		x := tx(1, i)
		txs = append(txs, x)
		p.Add(x, 0, 0)
	}
	ids := map[types.Hash]struct{}{
		txs[1].ID(): {},
		txs[3].ID(): {},
	}
	if n := p.RemoveCommitted(ids); n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	got := p.Take(0, time.Minute, 0, 0, nil)
	if got[0].Nonce != 0 || got[1].Nonce != 2 || got[2].Nonce != 4 {
		t.Fatalf("wrong survivors: %v", got)
	}
	if p.RemoveCommitted(nil) != 0 {
		t.Fatal("empty removal should be 0")
	}
	// Sender budget freed by removal.
	q := New(Policy{PerSender: 1}, nil)
	a := tx(7, 0)
	q.Add(a, 0, 0)
	q.RemoveCommitted(map[types.Hash]struct{}{a.ID(): {}})
	if err := q.Add(tx(7, 1), 0, 0); err != nil {
		t.Fatalf("sender budget not freed: %v", err)
	}
}

func TestOldestSeen(t *testing.T) {
	p := New(Policy{}, nil)
	if _, ok := p.OldestSeen(); ok {
		t.Fatal("empty pool has an oldest entry")
	}
	p.Add(tx(1, 0), 0, 5*time.Second)
	p.Add(tx(1, 1), 0, 9*time.Second)
	if at, ok := p.OldestSeen(); !ok || at != 5*time.Second {
		t.Fatalf("OldestSeen = %v, %v", at, ok)
	}
}

// Property: the pool never exceeds its capacity and never loses or
// duplicates transactions across arbitrary add/take sequences.
func TestPoolInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(50) + 1
		p := New(Policy{Capacity: cap, PerSender: 10}, nil)
		inPool := map[types.Hash]bool{}
		taken := map[types.Hash]bool{}
		next := uint64(0)
		for step := 0; step < 300; step++ {
			if rng.Intn(3) != 0 {
				x := tx(byte(rng.Intn(5)), next)
				next++
				err := p.Add(x, 0, time.Duration(step))
				if err == nil {
					if inPool[x.ID()] {
						return false // duplicate admitted
					}
					inPool[x.ID()] = true
				}
			} else {
				for _, x := range p.Take(0, time.Hour, rng.Intn(5)+1, 0, nil) {
					if !inPool[x.ID()] || taken[x.ID()] {
						return false // lost or duplicated
					}
					delete(inPool, x.ID())
					taken[x.ID()] = true
				}
			}
			if p.Len() > cap || p.Len() != len(inPool) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPoolAddTake(b *testing.B) {
	p := New(Policy{Capacity: 100000}, nil)
	txs := make([]*types.Transaction, 1000)
	for i := range txs {
		txs[i] = &types.Transaction{From: types.Address{byte(i)}, Nonce: uint64(i)}
		txs[i].ID()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := txs[i%1000]
		// Fresh identity per round to avoid duplicate rejection.
		y := *x
		y.Nonce = uint64(i)
		p.Add(&y, 0, time.Duration(i))
		if i%100 == 99 {
			p.Take(0, time.Duration(i)+time.Hour, 100, 0, nil)
		}
	}
}

var _ = fmt.Sprint // keep fmt for debugging edits

// Strict nonces: a stalled sender's whole backlog stays pooled, in-order
// senders are taken, each sender's executor nonce is looked up once per
// take, and the next take starts from fresh executor nonces.
func TestTakeSequencedLooksUpEachSenderOnce(t *testing.T) {
	p := New(Policy{}, nil)
	for i := uint64(0); i < 5; i++ {
		if err := p.Add(tx(1, i+1), 0, 0); err != nil { // gap: nonce 0 missing
			t.Fatal(err)
		}
		if err := p.Add(tx(2, i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	next := map[types.Address]uint64{}
	lookups := 0
	nextNonce := func(a types.Address) uint64 { lookups++; return next[a] }

	got := p.TakeSequenced(0, time.Minute, 0, 0, gasOf, nextNonce)
	if len(got) != 5 || got[0].From != (types.Address{2}) || got[4].Nonce != 4 {
		t.Fatalf("took %d txs (%v), want sender 2's five", len(got), got)
	}
	if lookups != 2 {
		t.Fatalf("NextNonce called %d times, want once per sender (2)", lookups)
	}
	next[types.Address{1}] = 1 // the gap is filled on chain
	if got := p.TakeSequenced(0, time.Minute, 0, 0, gasOf, nextNonce); len(got) != 5 || p.Len() != 0 {
		t.Fatalf("second take got %d, pool left %d; want 5 and 0", len(got), p.Len())
	}
}
