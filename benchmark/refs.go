package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// tolerance says how far a numeric cell of the named column may sit from
// its reference cell: within rel of the reference, or within abs of it.
type tolerance func(column string) (rel, abs float64)

// lambdaTolerance: a throughput may move by the solver's own ε.
func lambdaTolerance(string) (rel, abs float64) { return 0.10, 0 }

// aplTolerance: path lengths print three decimals; 0.02 hops is far below
// any difference between topologies.
func aplTolerance(string) (rel, abs float64) { return 0, 0.02 }

// healTolerance is for the self-heal trajectory table, which has both.
func healTolerance(column string) (rel, abs float64) {
	if column == "lambda" {
		return lambdaTolerance(column)
	}
	return aplTolerance(column)
}

// tsvTable is one table of Table.WriteTSV output.
type tsvTable struct {
	title  string
	header []string
	rows   [][]string
}

// parseTSV splits concatenated WriteTSV output back into tables: a "# "
// line opens a table, the next line is its header.
func parseTSV(b []byte) []tsvTable {
	var out []tsvTable
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if title, ok := strings.CutPrefix(line, "# "); ok {
			out = append(out, tsvTable{title: title})
			continue
		}
		if len(out) == 0 {
			continue
		}
		t := &out[len(out)-1]
		if t.header == nil {
			t.header = strings.Split(line, "\t")
		} else {
			t.rows = append(t.rows, strings.Split(line, "\t"))
		}
	}
	return out
}

// cellMatches compares one cell with its reference: equal strings match;
// two numbers match within the tolerance; anything else does not.
func cellMatches(ref, got string, rel, abs float64) bool {
	if ref == got {
		return true
	}
	r, err1 := strconv.ParseFloat(ref, 64)
	g, err2 := strconv.ParseFloat(got, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	d := math.Abs(r - g)
	return d <= abs || d <= rel*math.Abs(r)
}

// compareCells returns one message per cell of got that is off its
// reference. A difference in shape (tables, headers, row keys) is reported
// once and counts every cell of the affected table.
func compareCells(ref, got []byte, tol tolerance) (off int, notes []string) {
	rt, gt := parseTSV(ref), parseTSV(got)
	if len(rt) != len(gt) {
		return max(1, countTSVCells(gt)), []string{fmt.Sprintf("%d tables, reference has %d", len(gt), len(rt))}
	}
	for ti := range gt {
		r, g := rt[ti], gt[ti]
		if strings.Join(r.header, "\t") != strings.Join(g.header, "\t") || len(r.rows) != len(g.rows) {
			off += max(1, dataCells(g.rows))
			notes = append(notes, fmt.Sprintf("%q: header or row count differs from the reference", g.title))
			continue
		}
		for ri, row := range g.rows {
			rrow := r.rows[ri]
			if len(rrow) != len(row) || rrow[0] != row[0] {
				off += max(1, len(row)-1)
				notes = append(notes, fmt.Sprintf("%q row %d: key or width differs from the reference", g.title, ri))
				continue
			}
			for ci := 1; ci < len(row); ci++ {
				rel, abs := tol(g.header[ci])
				if !cellMatches(rrow[ci], row[ci], rel, abs) {
					off++
					notes = append(notes, fmt.Sprintf("%q %s=%s %s: %s, reference %s",
						g.title, g.header[0], row[0], g.header[ci], row[ci], rrow[ci]))
				}
			}
		}
	}
	return off, notes
}

func countTSVCells(ts []tsvTable) int {
	n := 0
	for _, t := range ts {
		n += dataCells(t.rows)
	}
	return n
}

// compareReference is output check (4): at full size every cell of the
// anchor instance must sit within tolerance of testdata/ref-<workload>.tsv;
// off-reference cells count as failed operations. The anchor does not
// depend on -seed, so the check holds on every run. With -write-refs the
// file is (re)written instead.
func (e *env) compareReference(tsv []byte, tol tolerance) {
	if e.refDir == "" {
		e.res.Reference = "no references at this size"
		return
	}
	path := filepath.Join(e.refDir, "ref-"+e.res.Workload+".tsv")
	if e.writeRefs {
		if err := os.WriteFile(path, tsv, 0o644); err != nil {
			e.res.fail(1, "writing reference: %v", err)
		}
		e.res.Reference = "written to " + path
		return
	}
	ref, err := os.ReadFile(path)
	if err != nil {
		e.res.fail(1, "reading reference: %v", err)
		e.res.Reference = "missing"
		return
	}
	off, notes := compareCells(ref, tsv, tol)
	for _, n := range notes {
		e.res.fail(0, "off reference: %s", n)
	}
	e.res.Failed += off
	e.res.Reference = fmt.Sprintf("%d anchor cells off %s", off, path)
	if bytes.Equal(ref, tsv) {
		e.res.Reference = "anchor byte-identical to " + path
	}
}
