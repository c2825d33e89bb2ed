package main

// references holds the digest of each workload's reference results for
// the default seed and one held-out seed (2013), recorded with -record.
// Regenerate them only with a change that is meant to alter simulated
// results, and say so in that change.
var references = map[string]map[int64]uint64{
	"badco-pop":    {1: 0x8f558adb9869fe93, 2013: 0x010088d106fbdfdb},
	"detailed-pop": {1: 0x93bfd03e75a8fec7, 2013: 0x5d3be3b070f1523e},
	"sampled-long": {1: 0x095f4f9e6995bdca, 2013: 0xec9d9ce0ab2c1924},
	"served":       {1: 0xbe226d988fc57847, 2013: 0xd3b2e9f872aad507},
}
