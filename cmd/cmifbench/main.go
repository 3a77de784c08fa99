// Command cmifbench regenerates every experiment artifact of the paper
// reproduction — the section 3.1 table, Figures 1-10 and the two
// ablations — and prints each as a table.
//
// Usage:
//
//	cmifbench [T1 F1 ... F10 A1 A2]
//
// Run with no experiment ids for everything; naming ids restricts the
// run. An id cmifbench does not know is an error (exit 2) and nothing
// runs. Performance numbers come from bench/ (cmifmark), not from here.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/cmif"
)

var errUnknownID = errors.New("unknown experiment id")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cmifbench:", err)
		if errors.Is(err, errUnknownID) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run prints the named experiments (all of them when args is empty) to
// stdout in paper order, whatever order args names them in.
func run(args []string, stdout io.Writer) error {
	all := cmif.Experiments()
	ids := make([]string, len(all))
	for i, exp := range all {
		ids[i] = exp.ID
	}
	for _, arg := range args {
		if !slices.Contains(ids, arg) {
			return fmt.Errorf("%w %q; valid ids: %s", errUnknownID, arg, strings.Join(ids, " "))
		}
	}
	for _, exp := range all {
		if len(args) > 0 && !slices.Contains(args, exp.ID) {
			continue
		}
		tbl, err := exp.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Fprintln(stdout, tbl)
	}
	return nil
}
