// Quickstart: the smallest complete RVM program.
//
// It creates a log and a segment, maps a region, commits a transaction,
// demonstrates abort, simulates a crash, and shows that recovery restores
// exactly the committed state.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	rvm "github.com/rvm-go/rvm"
)

func main() {
	dir, err := os.MkdirTemp("", "rvm-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "quickstart.log")
	segPath := filepath.Join(dir, "quickstart.seg")

	// One-time setup: a write-ahead log and an external data segment.
	if err := rvm.CreateLog(logPath, 1<<20); err != nil {
		log.Fatal(err)
	}
	if err := rvm.CreateSegment(segPath, 1, 1<<16); err != nil {
		log.Fatal(err)
	}

	// Open performs crash recovery (a no-op on a fresh log).
	db, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		log.Fatal(err)
	}

	// Map a page-aligned region; its memory is the committed image.
	reg, err := db.Map(segPath, 0, int64(rvm.PageSize))
	if err != nil {
		log.Fatal(err)
	}

	// A committed transaction: declare the range, mutate memory, commit.
	tx, err := db.Begin(rvm.Restore)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.SetRange(reg, 0, 32); err != nil {
		log.Fatal(err)
	}
	copy(reg.Data(), "committed and therefore durable")
	if err := tx.Commit(rvm.Flush); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed: %q\n", reg.Data()[:31])

	// An aborted transaction: memory is restored in place.
	tx2, err := db.Begin(rvm.Restore)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx2.Modify(reg, 0, []byte("scribble scribble scribble!!!!!")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before abort: %q\n", reg.Data()[:31])
	if err := tx2.Abort(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after abort:  %q\n", reg.Data()[:31])

	// A transaction that never commits — then a crash.  We simply drop
	// the handle without Close, exactly what a kill -9 leaves behind.
	//rvmcheck:allow txlifecycle -- leaking the handle IS this example: it simulates the crash
	tx3, err := db.Begin(rvm.Restore)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx3.Modify(reg, 0, []byte("uncommitted, must not survive!!")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at crash:     %q\n", reg.Data()[:31])
	// (crash: the process state vanishes; the files remain)

	// Restart: recovery replays the log, head to tail.
	db2, err := rvm.Open(rvm.Options{LogPath: logPath})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	reg2, err := db2.Map(segPath, 0, int64(rvm.PageSize))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered:    %q\n", reg2.Data()[:31])
	st := db2.Stats()
	fmt.Printf("recovery ran: %d pass(es), %d byte(s) applied\n",
		st.Recoveries, st.RecoveredBytes)
}
