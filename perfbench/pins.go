package main

// pins are the simulated digests of each workload at the default seed:
// sha256 over the sub-run digests in sub-run order, each of which hashes
// the canonical JSON of that simulation's result. A change that alters
// what the simulator computes changes them; a pure speed-up does not.
var pins = map[string]string{
	"fig5-dcm":      "0403aae8ce6b61482ef272ef5c76b8257044970a16762ad233c34cf22d5a15b7",
	"fanout5-burst": "d20cb84c1849c5e8ba040779e90e60f20db18a70e4b45a881b68b256a97eef60",
	"million-smoke": "a5a1e7929153609f7b01655c4bf4660cb81bd5ec5299ad34a00448fddc6f5f3f",
}
