package chain

import (
	"testing"
	"time"

	"diablo/internal/mempool"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// settlement is one callback a client fired.
type settlement struct {
	kind      string
	token     any
	submitted time.Duration
	at        time.Duration
}

// recordSettlements wires every callback of c into a shared log.
func recordSettlements(c *Client) *[]settlement {
	var log []settlement
	c.OnDecided = func(tk Ticket, _ types.ExecStatus, at time.Duration) {
		log = append(log, settlement{"decided", tk.Token, tk.Submitted, at})
	}
	c.OnDropped = func(tk Ticket, _ error, at time.Duration) {
		log = append(log, settlement{"dropped", tk.Token, tk.Submitted, at})
	}
	c.OnTimeout = func(tk Ticket, _ int, at time.Duration) {
		log = append(log, settlement{"timeout", tk.Token, tk.Submitted, at})
	}
	return &log
}

// wantOnly checks that exactly one callback fired, and which.
func wantOnly(t *testing.T, log []settlement, want settlement) {
	t.Helper()
	if len(log) != 1 || log[0] != want {
		t.Fatalf("settlements = %+v, want exactly [%+v]", log, want)
	}
}

func TestSubmitTokenReturnedOnDecided(t *testing.T) {
	sched, net := deployTest(t, testParams(), 2)
	w := wallet.New(wallet.FastScheme{}, "tok-decided", 1)
	c := net.NewClient(0)
	log := recordSettlements(c)
	sched.RunFor(100 * time.Millisecond)
	c.Submit(signedTransfer(w, 0), 7)
	sched.RunFor(time.Second)
	blk, _ := net.AssembleBlock(0, false)
	net.DeliverToAll(blk)
	sched.RunFor(10 * time.Second)
	net.DeliverToAll(blk)
	wantOnly(t, *log, settlement{"decided", 7, 100 * time.Millisecond, 1100 * time.Millisecond})
}

func TestSubmitTokenReturnedOnDropped(t *testing.T) {
	params := testParams()
	params.Mempool = mempool.Policy{Capacity: 1}
	sched, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "tok-dropped", 2)
	c := net.NewClient(0)
	c.Submit(signedTransfer(w, 0), "kept")
	log := recordSettlements(c)
	c.Submit(signedTransfer(w, 1), "full")
	sched.RunFor(10 * time.Second)
	wantOnly(t, *log, settlement{"dropped", "full", 0, rpcLatency})
}

func TestSubmitTokenReturnedOnTimeout(t *testing.T) {
	sched, net := deployTest(t, testParams(), 2)
	w := wallet.New(wallet.FastScheme{}, "tok-timeout", 1)
	c := net.NewClient(0)
	c.SetRetry(RetryPolicy{Timeout: time.Second, MaxRetries: 1})
	log := recordSettlements(c)
	c.Submit(signedTransfer(w, 0), 3)
	// No block is ever assembled: the first attempt times out after 1s,
	// the resubmission is "already known" and still pooled, and its 2s
	// backoff expires with the retries exhausted.
	sched.RunFor(time.Minute)
	wantOnly(t, *log, settlement{"timeout", 3, 0, 2*rpcLatency + 3*time.Second})
	if c.Retries != 1 || c.TimedOut != 1 || c.Pending() != 0 {
		t.Fatalf("retries=%d timedOut=%d pending=%d, want 1 1 0", c.Retries, c.TimedOut, c.Pending())
	}
}

func TestSubmitTokenReturnedOnReceiptPoll(t *testing.T) {
	sched, net := deployTest(t, testParams(), 2)
	w := wallet.New(wallet.FastScheme{}, "tok-poll", 1)
	c := net.NewClient(0)
	c.SetRetry(RetryPolicy{Timeout: time.Second, MaxRetries: 3})
	log := recordSettlements(c)
	c.Submit(signedTransfer(w, 0), 5)
	sched.RunFor(100 * time.Millisecond)
	// The block commits, but never reaches the client's node: the retry
	// finds the transaction "already known" and polls its receipt.
	blk, _ := net.AssembleBlock(0, false)
	net.DeliverBlock(1, blk)
	sched.RunFor(time.Minute)
	wantOnly(t, *log, settlement{"decided", 5, 0, 2*rpcLatency + time.Second})
	// The block reaching the client's node late settles nothing twice.
	net.DeliverBlock(0, blk)
	if len(*log) != 1 || c.Pending() != 0 {
		t.Fatalf("late delivery: settlements=%d pending=%d", len(*log), c.Pending())
	}
}

// A transaction resubmitted while its earlier copy waits at confirmation
// depth is settled once, on the newest record: the commit the earlier
// record was queued under settles its replacement.
func TestResubmitWhileAwaitingConfirmationSettlesNewest(t *testing.T) {
	params := testParams()
	params.ConfirmDepth = 2
	sched, net := deployTest(t, params, 2)
	w := wallet.New(wallet.FastScheme{}, "tok-resubmit", 1)
	c := net.NewClient(0)
	log := recordSettlements(c)
	tx := signedTransfer(w, 0)
	c.Submit(tx, "first")
	sched.RunFor(time.Second)
	blk1, _ := net.AssembleBlock(0, false)
	net.DeliverToAll(blk1)

	c.Submit(tx, "second")
	if c.Pending() != 1 {
		t.Fatalf("pending = %d after resubmission, want 1", c.Pending())
	}
	blk2, _ := net.AssembleBlock(0, true)
	net.DeliverToAll(blk2)
	blk3, _ := net.AssembleBlock(0, true)
	net.DeliverToAll(blk3)
	// The resubmission's own attempt, still in flight, finds the record
	// settled and does nothing.
	sched.RunFor(10 * time.Second)
	wantOnly(t, *log, settlement{"decided", "second", time.Second, time.Second})
	if c.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", c.Pending())
	}
}
