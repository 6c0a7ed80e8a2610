// Multiquery: evaluate several JSONPath expressions with a QuerySet,
// first over raw bytes (one lazy fast-forwarding pass per expression),
// then over a structural index built once and borrowed by every
// expression, and validate untrusted input first.
//
//	go run ./examples/multiquery
package main

import (
	"fmt"
	"log"
	"time"

	"jsonski"
	"jsonski/internal/gen"
)

func main() {
	data, err := gen.Generate("wm", 4<<20, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Fast-forwarding skips validation by design (paper §3.3); check
	// untrusted input once up front.
	if !jsonski.Valid(data) {
		log.Fatal("input is not well-formed JSON")
	}

	exprs := []string{
		"$.it[*].nm",
		"$.it[*].salePrice",
		"$.it[*].bmrpr.pr",
	}
	qs := jsonski.MustCompileSet(exprs...)

	counts := make([]int64, qs.Len())
	var cheapest float64 = 1 << 30
	st, err := qs.Run(data, func(m jsonski.SetMatch) {
		counts[m.Query]++
		if qs.Expr(m.Query) == "$.it[*].salePrice" {
			if f, err := m.Float(); err == nil && f < cheapest {
				cheapest = f
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	// Count-only timings: one lazy pass per member over raw bytes, then
	// an index built once whose masks every member borrows, so
	// classification is paid once rather than per query.
	start := time.Now()
	if _, err := qs.Run(data, nil); err != nil {
		log.Fatal(err)
	}
	lazy := time.Since(start)

	start = time.Now()
	ix := jsonski.BuildIndex(data)
	if _, err := qs.RunIndexed(ix, nil); err != nil {
		log.Fatal(err)
	}
	ix.Release()
	indexed := time.Since(start)

	for i, e := range exprs {
		fmt.Printf("%-22s %8d matches\n", e, counts[i])
	}
	fmt.Printf("cheapest sale price: %.2f\n", cheapest)
	fmt.Printf("raw bytes: %v   build index + indexed: %v   (%d matches total, ff %.1f%%)\n",
		lazy, indexed, st.Matches, st.FastForwardRatio()*100)
}
