package main

// Example runs the crashed-replica program and pins all it prints: node
// 0's view changes, every honest replica finalizing 9 slots, and the two
// leader crashes the chain survived.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// node 3 is crashed (it leads slots 3, 7, 11, ...)
	//
	// what happened (node 0's protocol events):
	//   t=90   node=0 view-change  view=1 slot=1
	//   t=91   node=0 enter-view   view=1 slot=1
	//   t=91   node=0 enter-view   view=1 slot=2
	//   t=91   node=0 enter-view   view=1 slot=3
	//   t=95   node=0 finalize     view=1 slot=1 3777d651
	//   t=96   node=0 finalize     view=1 slot=2 59ba8744
	//   t=97   node=0 finalize     view=1 slot=3 e7081533
	//   t=182  node=0 view-change  view=1 slot=4
	//   t=184  node=0 enter-view   view=1 slot=4
	//   t=184  node=0 enter-view   view=1 slot=5
	//   t=184  node=0 enter-view   view=1 slot=6
	//   t=184  node=0 enter-view   view=1 slot=7
	//   t=275  node=0 view-change  view=1 slot=8
	//   t=277  node=0 enter-view   view=1 slot=8
	//   t=277  node=0 enter-view   view=1 slot=9
	//
	// outcome:
	//   node 0 finalized 9 slots
	//   node 1 finalized 9 slots
	//   node 2 finalized 9 slots
	//
	// the chain survived 2 leader crashes and kept growing ✓
}
