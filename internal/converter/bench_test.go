package converter

import "testing"

// BenchmarkSplice measures effective-link extraction for a plant of paired
// converters, the inner loop of every topology conversion.
func BenchmarkSplice(b *testing.B) {
	const pairs = 512
	convs := make([]Converter, 0, 2*pairs)
	for p := 0; p < pairs; p++ {
		base := int32(p * 100)
		cfg0, cfg1 := Side, Side
		if p%2 == 1 {
			cfg0 = Cross
		}
		for i, cfg := range []Config{cfg0, cfg1} {
			id := 2*p + i
			peer := int32(2*p + 1 - i)
			c := Converter{ID: id, Ports: 6, Config: cfg}
			for pt := range c.Attach {
				c.Attach[pt] = NoEndpoint
			}
			off := int32(i * 10)
			c.Attach[PortServer] = Endpoint{Node: base + off, Conv: -1}
			c.Attach[PortEdge] = Endpoint{Node: base + off + 1, Conv: -1}
			c.Attach[PortAgg] = Endpoint{Node: base + off + 2, Conv: -1}
			c.Attach[PortCore] = Endpoint{Node: base + off + 3, Conv: -1}
			c.Attach[PortSide1] = Endpoint{Node: -1, Conv: peer, Port: PortSide1}
			c.Attach[PortSide2] = Endpoint{Node: -1, Conv: peer, Port: PortSide2}
			convs = append(convs, c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		links, err := Splice(convs, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(links) != 4*pairs {
			b.Fatalf("got %d links, want %d", len(links), 4*pairs)
		}
	}
}
