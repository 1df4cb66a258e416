package main

// Example runs the quickstart and pins all it prints: the protocol trace of
// one 4-node TetraBFT instance, then every node's decision after 5 message
// delays, Table 1's good-case latency.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// t=0    node=0 enter-view   view=0
	// t=0    node=0 propose      view=0 val="70726f70"
	// t=0    node=1 enter-view   view=0
	// t=0    node=2 enter-view   view=0
	// t=0    node=3 enter-view   view=0
	// t=0    node=0 vote-1       view=0 val="70726f70"
	// t=1    node=1 vote-1       view=0 val="70726f70"
	// t=1    node=2 vote-1       view=0 val="70726f70"
	// t=1    node=3 vote-1       view=0 val="70726f70"
	// t=2    node=2 vote-2       view=0 val="70726f70"
	// t=2    node=3 vote-2       view=0 val="70726f70"
	// t=2    node=0 vote-2       view=0 val="70726f70"
	// t=2    node=1 vote-2       view=0 val="70726f70"
	// t=3    node=0 vote-3       view=0 val="70726f70"
	// t=3    node=1 vote-3       view=0 val="70726f70"
	// t=3    node=2 vote-3       view=0 val="70726f70"
	// t=3    node=3 vote-3       view=0 val="70726f70"
	// t=4    node=2 vote-4       view=0 val="70726f70"
	// t=4    node=3 vote-4       view=0 val="70726f70"
	// t=4    node=0 vote-4       view=0 val="70726f70"
	// t=4    node=1 vote-4       view=0 val="70726f70"
	// t=5    node=0 decide       view=0 val="70726f70"
	// t=5    node=1 decide       view=0 val="70726f70"
	// t=5    node=2 decide       view=0 val="70726f70"
	// t=5    node=3 decide       view=0 val="70726f70"
	//
	// node 0 decided "proposal-from-node-0" after 5 message delays
	// node 1 decided "proposal-from-node-0" after 5 message delays
	// node 2 decided "proposal-from-node-0" after 5 message delays
	// node 3 decided "proposal-from-node-0" after 5 message delays
	//
	// (the paper's Table 1: good-case latency of TetraBFT = 5 message delays)
}
