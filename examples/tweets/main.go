// Tweets: the paper's TT workload — extract every URL shared in a stream
// of tweets ($[*].en.urls[*].url) without parsing the tweets.
//
//	go run ./examples/tweets            # generates a synthetic stream
//	go run ./examples/tweets file.json  # or reads your own tweet array
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"jsonski"
	"jsonski/internal/gen"
)

func main() {
	var data []byte
	var err error
	if len(os.Args) > 1 {
		data, err = os.ReadFile(os.Args[1])
	} else {
		data, err = gen.Generate("tt", 4<<20, 1) // 4 MiB synthetic stream
	}
	if err != nil {
		log.Fatal(err)
	}

	urls := jsonski.MustCompile("$[*].en.urls[*].url")
	texts := jsonski.MustCompile("$[*].text")

	start := time.Now()
	shown := 0
	stats, err := urls.Run(context.Background(), jsonski.Bytes(data), jsonski.FuncSink(func(m jsonski.Match) {
		if shown < 5 {
			fmt.Printf("url: %s\n", m.Value)
			shown++
		}
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("... %d urls total\n", stats.Matches)

	nTexts, err := texts.Count(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tweets with text\n", nTexts)
	fmt.Printf("scanned %.1f MB in %v (%.1f%% fast-forwarded)\n",
		float64(stats.InputBytes)/1e6, time.Since(start),
		stats.FastForwardRatio()*100)
}
