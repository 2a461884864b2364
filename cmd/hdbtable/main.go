// hdbtable writes, inspects and scans chunked columnar table files
// (internal/store): the persistent format behind hierdb's
// Register(name, FromFile(path)).
//
// Usage:
//
//	hdbtable write -o table.hdb [-chunk N] -csv data.csv
//	hdbtable write -o table.hdb [-chunk N] -synth -seed S -nrel R -rel I
//	hdbtable inspect table.hdb [-zones]
//	hdbtable scan table.hdb [-col I -op OP -val V]
//
// write builds a table file from a CSV (header row names the columns;
// cells parse as int, then float, then bool, empty meaning null) or
// from one relation of a querygen-synthesized differential case (the
// same deterministic tables internal/difftest cross-checks the engine
// on). inspect dumps the footer: schema, per-chunk directory and zone
// maps. scan registers the file on a throwaway DB, runs a Scan (with
// an optional single predicate) and reports the row count plus the
// disk-scan counters — chunks scanned, chunks skipped by zone-map
// pruning, bytes read.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"hierdb"
	"hierdb/internal/difftest"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hdbtable: ")
	if len(os.Args) < 2 {
		log.Fatalf("usage: hdbtable write|inspect|scan ... (run a subcommand with -h for flags)")
	}
	switch os.Args[1] {
	case "write":
		cmdWrite(os.Args[2:])
	case "inspect":
		cmdInspect(os.Args[2:])
	case "scan":
		cmdScan(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q (want write, inspect or scan)", os.Args[1])
	}
}

func cmdWrite(args []string) {
	fs := flag.NewFlagSet("write", flag.ExitOnError)
	out := fs.String("o", "", "output table file (required; must not exist)")
	chunk := fs.Int("chunk", 0, "rows per chunk (0 = default)")
	csvPath := fs.String("csv", "", "CSV input with a header row")
	synth := fs.Bool("synth", false, "write a querygen-synthesized relation instead of CSV")
	seed := fs.Uint64("seed", 42, "synthesis seed (with -synth)")
	nrel := fs.Int("nrel", 3, "relations in the synthesized case (with -synth)")
	rel := fs.Int("rel", 0, "which relation of the case to write (with -synth)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("write: -o is required")
	}
	var cols []string
	var rows []vec.Row
	switch {
	case *synth && *csvPath != "":
		log.Fatal("write: -csv and -synth are mutually exclusive")
	case *synth:
		c := difftest.Synthesize(*seed, "synth", *nrel)
		if *rel < 0 || *rel >= len(c.Tables) {
			log.Fatalf("write: -rel %d out of range (case has %d relations)", *rel, len(c.Tables))
		}
		t := c.Tables[*rel]
		cols, rows = t.Cols, t.Rows
	case *csvPath != "":
		var err error
		if cols, rows, err = readCSV(*csvPath); err != nil {
			log.Fatalf("write: %v", err)
		}
	default:
		log.Fatal("write: one of -csv or -synth is required")
	}
	if err := store.WriteTable(*out, cols, *chunk, rows); err != nil {
		log.Fatalf("write: %v", err)
	}
	fmt.Printf("wrote %s: %d rows, %d columns\n", *out, len(rows), len(cols))
}

// readCSV loads a header-row CSV, parsing each cell as int, then
// float, then bool, with the empty cell meaning null. Mixed columns
// are legal — the table format resolves them to a boxed schema kind.
func readCSV(path string) ([]string, []vec.Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("%s: empty CSV (need a header row)", path)
	}
	cols := recs[0]
	rows := make([]vec.Row, 0, len(recs)-1)
	for ri, rec := range recs[1:] {
		if len(rec) != len(cols) {
			return nil, nil, fmt.Errorf("%s: row %d has %d cells, header has %d", path, ri+1, len(rec), len(cols))
		}
		row := make(vec.Row, len(rec))
		for i, cell := range rec {
			row[i] = parseCell(cell)
		}
		rows = append(rows, row)
	}
	return cols, rows, nil
}

func parseCell(s string) any {
	if s == "" {
		return nil
	}
	if v, err := strconv.ParseInt(s, 10, 64); err == nil {
		return int(v)
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	if v, err := strconv.ParseBool(s); err == nil {
		return v
	}
	return s
}

func cmdInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	zones := fs.Bool("zones", false, "dump per-chunk zone maps")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("inspect: exactly one table file")
	}
	t, err := store.Open(fs.Arg(0))
	if err != nil {
		log.Fatalf("inspect: %v", err)
	}
	defer t.Close()
	fmt.Printf("%s: %d rows, %d chunks\n", t.Path(), t.NumRows(), t.NumChunks())
	fmt.Println("schema:")
	for i, name := range t.Cols() {
		fmt.Printf("  [%d] %-16s %s\n", i, name, t.Kinds()[i])
	}
	fmt.Println("chunks:")
	for i := 0; i < t.NumChunks(); i++ {
		ch := t.Chunk(i)
		fmt.Printf("  [%3d] off=%-10d len=%-8d rows=%d\n", i, ch.Off, ch.Len, ch.Rows)
		if !*zones {
			continue
		}
		for ci, z := range ch.Zones {
			fmt.Printf("        col %d: %s\n", ci, zoneString(&z))
		}
	}
}

func zoneString(z *store.ZoneMap) string {
	s := fmt.Sprintf("kind=%s", z.Kind)
	if z.HasNulls {
		s += " nulls"
	}
	if !z.HasNonNull {
		return s + " all-null"
	}
	if z.HasNaN {
		s += " nan"
	}
	if z.HasRange {
		switch {
		case z.Kind == vec.String:
			s += fmt.Sprintf(" range=[%q, %q]", z.MinStr, z.MaxStr)
		case z.Kind == vec.Float64:
			s += fmt.Sprintf(" range=[%g, %g]", z.MinF64, z.MaxF64)
		case z.Kind == vec.Uint64:
			s += fmt.Sprintf(" range=[%d, %d]", uint64(z.MinI64), uint64(z.MaxI64))
		default:
			s += fmt.Sprintf(" range=[%d, %d]", z.MinI64, z.MaxI64)
		}
	}
	return s
}

func cmdScan(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	col := fs.Int("col", -1, "predicate column index (-1 = no predicate)")
	opName := fs.String("op", "eq", "predicate operator: eq ne lt le gt ge isnull notnull")
	val := fs.String("val", "", "predicate constant (parsed like a CSV cell)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("scan: exactly one table file")
	}
	db := hierdb.Open()
	defer db.Close()
	if err := db.Register("t", hierdb.FromFile(fs.Arg(0))); err != nil {
		log.Fatalf("scan: %v", err)
	}
	q := db.Scan("t")
	if *col >= 0 {
		op, ok := map[string]hierdb.CmpOp{
			"eq": hierdb.Eq, "ne": hierdb.Ne, "lt": hierdb.Lt, "le": hierdb.Le,
			"gt": hierdb.Gt, "ge": hierdb.Ge, "isnull": hierdb.IsNull, "notnull": hierdb.NotNull,
		}[*opName]
		if !ok {
			log.Fatalf("scan: unknown operator %q", *opName)
		}
		q = q.Where(hierdb.Pred{Col: *col, Op: op, Val: parseCell(*val)})
	}
	rows, err := q.Run(context.Background())
	if err != nil {
		log.Fatalf("scan: %v", err)
	}
	defer rows.Close()
	count := 0
	for rows.Next() {
		count++
	}
	if err := rows.Err(); err != nil {
		log.Fatalf("scan: %v", err)
	}
	st := rows.Stats()
	fmt.Printf("rows=%d chunks scanned=%d skipped=%d disk bytes=%d rows decoded=%d kept=%d\n",
		count, st.ChunksScanned, st.ChunksSkipped, st.DiskBytesRead, st.DiskRowsDecoded, st.DiskRowsKept)
}
