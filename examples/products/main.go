// Products: the paper's BB workload — slice category paths with an index
// range ($.pd[*].cp[1:3].id) and probe a rare attribute ($.pd[*].vc[*].cha),
// showing how selectivity drives which fast-forward groups do the work.
//
//	go run ./examples/products
package main

import (
	"context"
	"fmt"
	"log"

	"jsonski"
	"jsonski/internal/gen"
)

func main() {
	data, err := gen.Generate("bb", 4<<20, 7)
	if err != nil {
		log.Fatal(err)
	}

	run := func(expr string) {
		q := jsonski.MustCompile(expr)
		st, err := q.Run(context.Background(), jsonski.Bytes(data), nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %8d matches  ff=%5.1f%%  (G1 %4.1f%%  G2 %4.1f%%  G4 %4.1f%%  G5 %4.1f%%)\n",
			expr, st.Matches, st.FastForwardRatio()*100,
			st.GroupRatio(0)*100, st.GroupRatio(1)*100,
			st.GroupRatio(3)*100, st.GroupRatio(4)*100)
	}

	// The [1:3] range activates G5 (skip out-of-range elements); the very
	// selective vc query leans on G2 (skip unmatched values).
	run("$.pd[*].cp[1:3].id")
	run("$.pd[*].vc[*].cha")
	run("$.pd[0].nm")

	// Collect a few concrete values with All.
	q := jsonski.MustCompile("$.pd[0:2].cp[1:3].id")
	vals, err := q.All(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfirst products' 2nd-3rd category ids:")
	for _, v := range vals {
		fmt.Printf("  %s\n", v)
	}
}
