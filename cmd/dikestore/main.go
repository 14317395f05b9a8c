// Command dikestore inspects and maintains a durable run store offline
// — the segment-log directory a dikeserved -store-dir daemon writes.
//
// Usage:
//
//	dikestore -dir DIR stats             # counter snapshot (JSON)
//	dikestore -dir DIR ls                # list live result records
//	dikestore -dir DIR get DIGEST        # print one stored result
//	dikestore -dir DIR verify            # read-only damage scan
//	dikestore -dir DIR compact           # rewrite live records, drop the rest
//
// verify never writes a byte, so it is safe against a store owned by a
// running daemon; stats, ls, get and compact open the store the way the
// daemon does (recovering a torn tail) and must not race a live writer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"dike/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run executes one dikestore command and returns the exit status: 0
// on success, 1 when verify finds damage (a distinct status, so
// scripts can react without parsing the report), 2 on any error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dikestore", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dikestore -dir DIR {stats|ls|get DIGEST|verify|compact}\n")
		fs.PrintDefaults()
	}
	fs.Parse(args) // exits on a bad flag, as flag.Parse does
	if *dir == "" || fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	var err error
	switch cmd := fs.Arg(0); cmd {
	case "stats":
		err = withStore(*dir, func(s *store.Store) error {
			return printJSON(stdout, s.Stats())
		})
	case "ls":
		err = withStore(*dir, func(s *store.Store) error {
			tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
			fmt.Fprintln(tw, "SEGMENT\tBYTES\tKEY")
			for _, rec := range s.Records() {
				fmt.Fprintf(tw, "%08d\t%d\t%s\n", rec.Segment, rec.Bytes, rec.Key)
			}
			return tw.Flush()
		})
	case "get":
		if fs.NArg() != 2 {
			err = fmt.Errorf("get needs exactly one DIGEST argument")
			break
		}
		err = withStore(*dir, func(s *store.Store) error {
			meta, result, ok := s.GetRecord(fs.Arg(1))
			if !ok {
				return fmt.Errorf("no result for digest %s", fs.Arg(1))
			}
			out := struct {
				Digest string          `json:"digest"`
				Meta   json.RawMessage `json:"meta,omitempty"`
				Result json.RawMessage `json:"result"`
			}{Digest: fs.Arg(1), Meta: meta, Result: result}
			return printJSON(stdout, out)
		})
	case "verify":
		var rep store.VerifyReport
		rep, err = store.Verify(*dir)
		if err == nil {
			err = printJSON(stdout, rep)
			if err == nil && !rep.Clean() {
				return 1
			}
		}
	case "compact":
		err = withStore(*dir, func(s *store.Store) error {
			before := s.Stats()
			if err := s.Compact(); err != nil {
				return err
			}
			after := s.Stats()
			fmt.Fprintf(stdout, "compacted: %d → %d bytes in %d → %d segments (%d live records)\n",
				before.SizeBytes, after.SizeBytes, before.Segments, after.Segments, after.Results)
			return nil
		})
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dikestore:", err)
		return 2
	}
	return 0
}

// withStore opens the store, runs fn, and always closes it.
func withStore(dir string, fn func(*store.Store) error) error {
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	return fn(s)
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
