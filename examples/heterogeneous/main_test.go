package main

// Example runs the heterogeneous-trust program and pins all it prints:
// every organization deciding the same value at t=4.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// quorum system: 3-org core (2-of-3 slices) + 2 satellites
	// organization 0 decided "ledger-state-from-org-0" at t=4
	// organization 1 decided "ledger-state-from-org-0" at t=4
	// organization 2 decided "ledger-state-from-org-0" at t=4
	// organization 3 decided "ledger-state-from-org-0" at t=4
	// organization 4 decided "ledger-state-from-org-0" at t=4
	//
	// heterogeneous trust, no signatures, one decision ✓
}
