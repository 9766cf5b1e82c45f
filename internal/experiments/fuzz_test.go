package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseAxes pins the sweep-spec parser's robustness contract:
// arbitrary input must either parse into axes whose derived operations
// (Size, Single, normalize) are well-formed, or return an error — never
// panic. cmd/experiments feeds -sweep straight into this parser, so this
// is the CLI's input boundary. Seed corpus in testdata/fuzz.
func FuzzParseAxes(f *testing.F) {
	for _, spec := range []string{
		"",
		"procs=1,2,4,8",
		"procs=1,2;partitioner=metis,pagrid;buffers=pooled,unpooled",
		"network=hypercube,mesh2d;perturb=none,brownout,chaos@3",
		"balancer=none,centralized;iters=5,10",
		"procs=0",
		"iters=-3",
		"warp=9",
		"procs=",
		" procs = 1 , 2 ; part = metis ",
		";;;",
		"perturb=brownout@",
		"procs=1;procs=2;procs=3",
		"exchange=basic,overlap;buffers=pooled",
		"=x",
		"procs=9999999999999999999",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ax, err := ParseAxes(spec)
		if err != nil {
			// Errors must identify the offending clause or axis.
			if !strings.Contains(err.Error(), "experiments:") {
				t.Errorf("ParseAxes(%q) error without package prefix: %v", spec, err)
			}
			return
		}
		if n := ax.Size(); n < 1 {
			t.Errorf("ParseAxes(%q) accepted but Size() = %d", spec, n)
		}
		// Single must never panic either; an error is fine (multi-value
		// axes), and success must echo only parsed values.
		if _, err := ax.Single(); err != nil {
			return
		}
		for _, v := range ax.Procs {
			if v < 1 {
				t.Errorf("ParseAxes(%q) accepted non-positive procs %d", spec, v)
			}
		}
		for _, v := range ax.Iterations {
			if v < 1 {
				t.Errorf("ParseAxes(%q) accepted non-positive iterations %d", spec, v)
			}
		}
	})
}

// FuzzIndent holds AppendIndent to its byte contract: for any valid JSON,
// compacted as json.Marshal would write it, the output equals encoding/json's
// own indentation with prefix "" and indent "  ", plus a newline. The
// corpus is seeded with the daemon's golden response documents and with
// strings that spell brackets, commas, colons and escaped quotes.
func FuzzIndent(f *testing.F) {
	docs, err := filepath.Glob("../server/testdata/*.json")
	if err != nil || len(docs) == 0 {
		f.Fatalf("no server documents to seed the corpus (%v)", err)
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{
		`{}`, `[]`, `[{},[],{"a":[]}]`, `"x"`, `0`, `null`,
		`{"a\"b":"c\\","d":["{","[",",",":","]","}"]}`,
		`{"\u003chtml\u003e":-1.5e-7,"t":true,"f":false,"n":null}`,
		`[[[[1,2],[3]],[]],{"k":{"k":{"k":{}}}}]`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var src bytes.Buffer
		if json.Compact(&src, doc) != nil {
			return // not JSON: AppendIndent only ever sees json.Marshal's output
		}
		var want bytes.Buffer
		if err := json.Indent(&want, src.Bytes(), "", "  "); err != nil {
			t.Fatalf("json.Indent refused compacted JSON %q: %v", src.Bytes(), err)
		}
		want.WriteByte('\n')
		if got := AppendIndent(nil, src.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("AppendIndent(%q):\n%s\nwant:\n%s", src.Bytes(), got, want.Bytes())
		}
	})
}
