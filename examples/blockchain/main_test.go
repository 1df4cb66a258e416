package main

// Example runs the blockchain program and pins all it prints: the
// finalized chain with its transactions, the replicated key-value state and
// every replica at 12 finalized slots.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// finalized chain:
	//   slot  1  block 33b6b794  1 txs (1 applied)
	//   slot  2  block 499cc288  1 txs (1 applied)
	//   slot  3  block bbccb551  1 txs (1 applied)
	//   slot  4  block 7789aad8  3 txs (3 applied)
	//   slot  5  block be33ae1c  0 txs (0 applied)
	//   slot  6  block 11cb10ba  0 txs (0 applied)
	//   slot  7  block e6c37e8b  0 txs (0 applied)
	//   slot  8  block 78c01de4  0 txs (0 applied)
	//   slot  9  block 25f050f5  0 txs (0 applied)
	//   slot 10  block 42a6db90  0 txs (0 applied)
	//   slot 11  block 6c147da2  0 txs (0 applied)
	//   slot 12  block 7a7b9f66  0 txs (0 applied)
	//
	// chain height: 12 blocks (one finalized per message delay after warm-up)
	//
	// replicated key-value state:
	//   alice  = 250 coins
	//   bob    = 200 coins
	//   carol  = 300 coins
	//
	// node 0 finalized 12 slots
	// node 1 finalized 12 slots
	// node 2 finalized 12 slots
	// node 3 finalized 12 slots
	//
	// all replicas hold identical chains ✓
}
