// Quickstart: compile a JSONPath query and stream a document through it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"jsonski"
)

// The running example of the paper's Figure 1: a geo-referenced tweet.
const tweet = `{
  "coordinates": [40.74118764, -73.9998279],
  "user": {"id": 6253282},
  "place": {
    "name": "Manhattan",
    "bounding_box": {
      "type": "Polygon",
      "pos": [[-74.026675, 40.683935], [-74.026675, 40.877483]]
    }
  }
}`

func main() {
	// Compile once; a Query is immutable and safe for concurrent use.
	q, err := jsonski.Compile("$.place.name")
	if err != nil {
		log.Fatal(err)
	}

	// Run streams the buffer in one pass, invoking the callback per match.
	stats, err := q.Run(context.Background(), jsonski.Bytes([]byte(tweet)), jsonski.FuncSink(func(m jsonski.Match) {
		fmt.Printf("match at [%d:%d]: %s\n", m.Start, m.End, m.Value)
	}))
	if err != nil {
		log.Fatal(err)
	}

	// The stats show how much of the input was fast-forwarded over:
	// the coordinates array (G1, wrong type), the user object (G2, name
	// mismatch), and everything after "name" matched (G4).
	fmt.Printf("\nfast-forwarded %.1f%% of the input:\n", stats.FastForwardRatio()*100)
	for g := 0; g < 5; g++ {
		fmt.Printf("  G%d: %5.1f%%\n", g+1, stats.GroupRatio(g)*100)
	}
}
