package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"
)

func sampleTx(nonce uint64) *Transaction {
	return &Transaction{
		Kind:     KindTransfer,
		From:     Address{1},
		To:       Address{2},
		Nonce:    nonce,
		Value:    100,
		GasLimit: 21000,
		GasPrice: 1,
	}
}

func TestTxIDDeterministicAndCached(t *testing.T) {
	a, b := sampleTx(1), sampleTx(1)
	if a.ID() != b.ID() {
		t.Fatal("identical transactions hash differently")
	}
	if a.ID() != a.ID() {
		t.Fatal("cached hash unstable")
	}
	c := sampleTx(2)
	if a.ID() == c.ID() {
		t.Fatal("different nonces produced the same hash")
	}
}

func TestTxIDCoversAllFields(t *testing.T) {
	base := sampleTx(1)
	mutations := []func(*Transaction){
		func(tx *Transaction) { tx.Kind = KindInvoke },
		func(tx *Transaction) { tx.From = Address{9} },
		func(tx *Transaction) { tx.To = Address{9} },
		func(tx *Transaction) { tx.Value = 999 },
		func(tx *Transaction) { tx.GasLimit = 999 },
		func(tx *Transaction) { tx.GasPrice = 999 },
		func(tx *Transaction) { tx.Data = []byte{1, 2, 3} },
	}
	for i, mutate := range mutations {
		tx := sampleTx(1)
		mutate(tx)
		if tx.ID() == base.ID() {
			t.Errorf("mutation %d did not change the transaction ID", i)
		}
	}
}

func TestTxIDExcludesSignature(t *testing.T) {
	a, b := sampleTx(1), sampleTx(1)
	b.Sig = []byte("signature")
	b.PubKey = []byte("pub")
	if a.ID() != b.ID() {
		t.Fatal("signature must not affect the transaction ID")
	}
}

func TestTxSize(t *testing.T) {
	tx := sampleTx(1)
	tx.Data = make([]byte, 100)
	tx.Sig = make([]byte, 64)
	tx.PubKey = make([]byte, 32)
	want := 1 + 40 + 32 + 100 + 64 + 32
	if tx.Size() != want {
		t.Fatalf("Size = %d, want %d", tx.Size(), want)
	}
}

func TestContractAddressDeterministic(t *testing.T) {
	a := ContractAddress(Address{1}, 0)
	b := ContractAddress(Address{1}, 0)
	c := ContractAddress(Address{1}, 1)
	d := ContractAddress(Address{2}, 0)
	if a != b {
		t.Fatal("contract address not deterministic")
	}
	if a == c || a == d || c == d {
		t.Fatal("contract address collisions")
	}
}

func TestBlockHashCoversContents(t *testing.T) {
	mk := func() *Block {
		return &Block{
			Number:    7,
			Parent:    Hash{1},
			Proposer:  Address{3},
			Timestamp: 4 * time.Second,
			Txs:       []*Transaction{sampleTx(1), sampleTx(2)},
			GasUsed:   42000,
		}
	}
	base := mk()
	baseHash := base.Hash()

	if mk().Hash() != baseHash {
		t.Fatal("identical blocks hash differently")
	}
	b := mk()
	b.Number = 8
	if b.Hash() == baseHash {
		t.Fatal("block number not covered by hash")
	}
	b = mk()
	b.Txs = b.Txs[:1]
	if b.Hash() == baseHash {
		t.Fatal("transaction list not covered by hash")
	}
	b = mk()
	b.StateRoot = Hash{9}
	if b.Hash() == baseHash {
		t.Fatal("state root not covered by hash")
	}
}

func TestBlockTxRootOrderSensitive(t *testing.T) {
	t1, t2 := sampleTx(1), sampleTx(2)
	a := &Block{Txs: []*Transaction{t1, t2}}
	b := &Block{Txs: []*Transaction{t2, t1}}
	if a.TxRoot() == b.TxRoot() {
		t.Fatal("TxRoot must be order sensitive")
	}
}

func TestBlockSize(t *testing.T) {
	b := &Block{Txs: []*Transaction{sampleTx(1)}}
	if b.Size() <= sampleTx(1).Size() {
		t.Fatalf("block size %d should exceed its tx size", b.Size())
	}
}

func TestStringers(t *testing.T) {
	if KindTransfer.String() != "transfer" || KindInvoke.String() != "invoke" || KindDeploy.String() != "deploy" {
		t.Fatal("TxKind strings wrong")
	}
	if StatusBudgetExceeded.String() != "budget exceeded" {
		t.Fatal("ExecStatus string wrong")
	}
	h := HashBytes([]byte("x"))
	if len(h.String()) != 2+64 {
		t.Fatalf("hash string %q has wrong length", h.String())
	}
	var a Address
	if !a.IsZero() {
		t.Fatal("zero address not zero")
	}
}

// Property: SigningBytes is injective over (nonce, value, data) — no two
// distinct transactions share an encoding.
func TestSigningBytesInjectiveProperty(t *testing.T) {
	f := func(n1, n2, v1, v2 uint64, d1, d2 []byte) bool {
		t1 := &Transaction{Nonce: n1, Value: v1, Data: d1}
		t2 := &Transaction{Nonce: n2, Value: v2, Data: d2}
		same := n1 == n2 && v1 == v2 && bytes.Equal(d1, d2)
		enc := bytes.Equal(t1.SigningBytes(), t2.SigningBytes())
		return same == enc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: HashBytes over split inputs equals hash over concatenation.
func TestHashBytesConcatProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		joined := append(append([]byte{}, a...), b...)
		return HashBytes(a, b) == HashBytes(joined)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// goldenTxs are a transfer and an invoke whose 300-byte calldata outgrows
// the ID hash's stack buffer, with their IDs pinned: the ID is SHA-256 of
// the signing encoding, and block hashes, checkpoints and traces depend
// on it staying so.
func goldenTxs() (transfer, invoke *Transaction) {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 7)
	}
	transfer = &Transaction{Kind: KindTransfer, From: Address{0xAA, 1}, To: Address{0xBB, 2},
		Nonce: 42, Value: 1000, GasLimit: 21000, GasPrice: 3}
	invoke = &Transaction{Kind: KindInvoke, From: Address{0xAA, 1}, To: Address{0xCC, 3},
		Nonce: 7, GasLimit: 5_000_000, GasPrice: 1, Data: data}
	return transfer, invoke
}

// encodeByHand is the signing encoding spelled out field by field.
func encodeByHand(tx *Transaction) []byte {
	buf := []byte{byte(tx.Kind)}
	buf = append(buf, tx.From[:]...)
	buf = append(buf, tx.To[:]...)
	for _, v := range []uint64{tx.Nonce, tx.Value, tx.GasLimit, tx.GasPrice} {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return append(buf, tx.Data...)
}

func TestTxIDGolden(t *testing.T) {
	transfer, invoke := goldenTxs()
	for _, c := range []struct {
		name string
		tx   *Transaction
		want string
	}{
		{"transfer", transfer, "0x02d27a5f09401019d4d4f6a95172f6fbc0240dc2c13d418fb5fbbbe6a242e524"},
		{"invoke-300B", invoke, "0x12aa9a0814e9163263a99cd260b4fde23d02b89c503d6391f5288169206fa7fd"},
	} {
		if !bytes.Equal(c.tx.SigningBytes(), encodeByHand(c.tx)) {
			t.Errorf("%s: SigningBytes differs from the field-by-field encoding", c.name)
		}
		if got := c.tx.ID(); got != Hash(sha256.Sum256(c.tx.SigningBytes())) {
			t.Errorf("%s: ID %s is not sha256(SigningBytes())", c.name, got)
		}
		if got := c.tx.ID().String(); got != c.want {
			t.Errorf("%s: ID = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRehashReplacesStaleID(t *testing.T) {
	tx := sampleTx(1)
	stale := tx.ID()
	tx.Nonce = 2
	if tx.ID() != stale {
		t.Fatal("ID should stay cached until Rehash")
	}
	if got := tx.Rehash(); got != sampleTx(2).ID() || tx.ID() != got {
		t.Fatal("Rehash did not replace the cached ID with the current fields' hash")
	}
}

func TestHashBytesMatchesSHA256(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1000} {
		data := bytes.Repeat([]byte{0x5A}, n)
		want := Hash(sha256.Sum256(data))
		if HashBytes(data) != want || HashBytes(data[:n/2], data[n/2:]) != want {
			t.Errorf("HashBytes of %d bytes differs from sha256", n)
		}
	}
}

// The ID and HashBytes hash inputs of up to 256 bytes without allocating.
func TestHashingAllocationFree(t *testing.T) {
	tx := sampleTx(1)
	tx.Data = make([]byte, hashInline-signingFixed) // a 256-byte encoding
	if n := testing.AllocsPerRun(100, func() { tx.Rehash() }); n != 0 {
		t.Errorf("ID of a %d-byte encoding: %v allocs, want 0", len(tx.SigningBytes()), n)
	}
	fresh := *sampleTx(1)
	if n := testing.AllocsPerRun(100, func() {
		fresh.hash = Hash{}
		fresh.ID()
	}); n != 0 {
		t.Errorf("ID of a transfer: %v allocs, want 0", n)
	}
	a, b := make([]byte, 200), make([]byte, 56)
	if n := testing.AllocsPerRun(100, func() { HashBytes(a, b) }); n != 0 {
		t.Errorf("HashBytes of 256 bytes: %v allocs, want 0", n)
	}
}
