// NDJSON: the paper's small-record scenario (Figures 11 and 12) — a
// sequence of independent records processed by a worker pool, one record
// per task. Matches still arrive in record order: workers buffer each
// record's spans and the sink sees them replayed in sequence.
//
//	go run ./examples/ndjson                 # synthetic Walmart-style items
//	cat items.ndjson | go run ./examples/ndjson '$.nm'
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"jsonski"
	"jsonski/internal/gen"
)

func main() {
	expr := "$.bmrpr.pr"
	if len(os.Args) > 1 {
		expr = os.Args[1]
	}
	var records [][]byte
	if fi, _ := os.Stdin.Stat(); fi != nil && fi.Mode()&os.ModeCharDevice == 0 {
		data, err := io.ReadAll(bufio.NewReader(os.Stdin))
		if err != nil {
			log.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				records = append(records, line)
			}
		}
	} else {
		var err error
		records, err = gen.GenerateRecords("wm", 4<<20, 3)
		if err != nil {
			log.Fatal(err)
		}
	}

	q := jsonski.MustCompile(expr)
	workers := runtime.GOMAXPROCS(0)

	var total int64
	start := time.Now()
	stats, err := q.Run(context.Background(), jsonski.Records(records),
		jsonski.FuncSink(func(jsonski.Match) { total++ }), jsonski.Workers(workers))
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("query %s over %d records (%d workers)\n", expr, len(records), workers)
	fmt.Printf("matches: %d (callback saw %d)\n", stats.Matches, total)
	fmt.Printf("throughput: %.0f MB/s, fast-forwarded %.1f%%\n",
		float64(stats.InputBytes)/elapsed.Seconds()/1e6,
		stats.FastForwardRatio()*100)
}
