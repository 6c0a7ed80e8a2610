package jsonski_test

import (
	"context"
	"fmt"
	"strings"

	"jsonski"
)

func ExampleCompile() {
	q, err := jsonski.Compile("$.store.book[0:2].title")
	if err != nil {
		panic(err)
	}
	data := []byte(`{"store": {"book": [
	  {"title": "Sayings of the Century", "price": 8.95},
	  {"title": "Sword of Honour", "price": 12.99},
	  {"title": "Moby Dick", "price": 8.99}
	]}}`)
	q.Run(context.Background(), jsonski.Bytes(data), jsonski.FuncSink(func(m jsonski.Match) {
		fmt.Println(m.String())
	}))
	// Output:
	// Sayings of the Century
	// Sword of Honour
}

func ExampleQuery_Count() {
	q := jsonski.MustCompile("$[*].id")
	n, _ := q.Count([]byte(`[{"id":1},{"x":0},{"id":3}]`))
	fmt.Println(n)
	// Output: 2
}

func ExampleQuery_Run_reader() {
	q := jsonski.MustCompile("$.level")
	ndjson := `{"level": "info", "msg": "a"}
{"level": "error", "msg": "b"}
`
	q.Run(context.Background(), jsonski.Reader(strings.NewReader(ndjson)), jsonski.FuncSink(func(m jsonski.Match) {
		fmt.Printf("record %d: %s\n", m.Record, m.String())
	}))
	// Output:
	// record 0: info
	// record 1: error
}

func ExampleQuerySet_Run() {
	qs := jsonski.MustCompileSet("$.user.name", "$.user.id")
	data := []byte(`{"user": {"name": "ada", "id": 7}}`)
	qs.Run(context.Background(), jsonski.Bytes(data), jsonski.FuncSink(func(m jsonski.Match) {
		fmt.Printf("%s = %s\n", qs.Expr(m.Query), m.Value)
	}))
	// Output:
	// $.user.name = "ada"
	// $.user.id = 7
}

func ExampleMustCompile_descendant() {
	q := jsonski.MustCompile("$..price")
	data := []byte(`{"book": {"price": 9}, "bicycle": {"spec": {"price": 19}}}`)
	q.Run(context.Background(), jsonski.Bytes(data), jsonski.FuncSink(func(m jsonski.Match) {
		fmt.Println(string(m.Value))
	}))
	// Output:
	// 9
	// 19
}

func ExampleUnquote() {
	s, _ := jsonski.Unquote([]byte(`"tab\tand €"`))
	fmt.Println(s)
	// Output: tab	and €
}

func ExampleQuery_Run_stats() {
	q := jsonski.MustCompile("$.place.name")
	data := []byte(`{"coordinates": [40.74, -73.99], "user": {"id": 6}, "place": {"name": "Manhattan", "bb": {"pos": [[1,2]]}}}`)
	stats, _ := q.Run(context.Background(), jsonski.Bytes(data), nil)
	fmt.Printf("matches=%d skipped>half=%v\n", stats.Matches, stats.FastForwardRatio() > 0.5)
	// Output: matches=1 skipped>half=true
}

func ExampleOpen() {
	data := []byte(`{
	  "user": {"name": "ada", "id": 7},
	  "items": [
	    {"sku": "a1", "qty": 2},
	    {"sku": "b2", "qty": 5},
	    {"sku": "c3", "qty": 9}
	  ]
	}`)
	doc := jsonski.Open(data)
	name, _ := doc.Get("user").Get("name").String()
	qty, _ := doc.Get("items").Index(2).Get("qty").Int()
	doc.Close()
	st := doc.Stats()
	fmt.Printf("%s bought %d; parsed < half the record: %v\n",
		name, qty, st.FastForwardRatio() > 0.5)
	// Output: ada bought 9; parsed < half the record: true
}

func ExampleValue_Unmarshal() {
	type item struct {
		SKU string `json:"sku"`
		Qty int    `json:"qty"`
	}
	doc := jsonski.Open([]byte(`{"pad": [0,1,2,3], "item": {"sku": "b2", "qty": 5}}`))
	var it item
	doc.Get("item").Unmarshal(&it)
	fmt.Printf("%s x%d\n", it.SKU, it.Qty)
	// Output: b2 x5
}
