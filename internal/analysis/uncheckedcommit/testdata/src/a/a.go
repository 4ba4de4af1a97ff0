// Golden cases for the uncheckedcommit analyzer.
package a

import (
	"errors"

	"github.com/rvm-go/rvm"
)

// A Commit whose error vanishes: the acknowledgement point is dropped.
func dropped(tx *rvm.Tx) {
	tx.Commit(rvm.Flush) // want `error of Commit is discarded`
}

func blanked(tx *rvm.Tx) {
	_ = tx.Commit(rvm.Flush) // want `error of Commit is blanked`
}

func deferredDrop(tx *rvm.Tx) {
	defer tx.Commit(rvm.Flush) // want `deferred error of Commit is discarded`
}

func spawnedDrop(tx *rvm.Tx) {
	go tx.Commit(rvm.Flush) // want `spawned error of Commit is discarded`
}

func droppedFlush(db *rvm.RVM) {
	db.Flush() // want `error of Flush is discarded`
}

func droppedTruncate(db *rvm.RVM) {
	db.Truncate() // want `error of Truncate is discarded`
}

// A checkpoint is a truncation: its error is the one report that the
// pages did not reach their segments.
func droppedCheckpoint(db *rvm.RVM) {
	db.Checkpoint() // want `error of Checkpoint is discarded`
}

func droppedCreate() {
	rvm.CreateLog("x.log", 1<<20)        // want `error of CreateLog is discarded`
	rvm.CreateSegment("x.seg", 1, 1<<16) // want `error of CreateSegment is discarded`
}

// Begin and Map return a nil handle on failure; blanking the error hides
// that until a nil dereference.
func blankBegin(db *rvm.RVM) *rvm.Tx {
	tx, _ := db.Begin(rvm.Restore) // want `error of Begin is blanked`
	return tx
}

func blankMap(db *rvm.RVM) *rvm.Region {
	r, _ := db.Map("x.seg", 0, 1<<16) // want `error of Map is blanked`
	return r
}

// Checked uses are fine in any form.
func checkedOK(db *rvm.RVM, tx *rvm.Tx) error {
	if err := tx.Commit(rvm.Flush); err != nil {
		return err
	}
	return db.Flush()
}

// Abort on an error path is idiomatic best-effort cleanup; it is not in
// the checked set.
func abortOK(tx *rvm.Tx) {
	tx.Abort()
	defer tx.Abort()
}

// Retrying past ErrPoisoned: the engine has fail-stopped, the loop can
// only spin.
func retryPoisoned(db *rvm.RVM) {
	for {
		tx, err := db.Begin(rvm.Restore)
		if errors.Is(err, rvm.ErrPoisoned) { // want `ErrPoisoned is observed but the loop continues`
			continue
		}
		if err != nil {
			return
		}
		if err := tx.Commit(rvm.Flush); err != nil {
			return
		}
		return
	}
}

func retryPoisonedEq(db *rvm.RVM) {
	for i := 0; i < 5; i++ {
		err := db.Flush()
		if err == rvm.ErrPoisoned { // want `ErrPoisoned is observed but the loop continues`
			continue
		}
		if err == nil {
			return
		}
	}
}

// Leaving the loop on ErrPoisoned is the correct shape.
func stopOnPoisonOK(db *rvm.RVM) error {
	for i := 0; i < 3; i++ {
		tx, err := db.Begin(rvm.Restore)
		if errors.Is(err, rvm.ErrPoisoned) {
			return err
		}
		if err != nil {
			continue
		}
		if err := tx.Commit(rvm.Flush); err == nil {
			return nil
		}
	}
	return errors.New("gave up")
}

// Outside a loop there is nothing to retry; testing for the sentinel is
// normal error handling.
func poisonCheckOK(db *rvm.RVM) bool {
	err := db.Flush()
	if errors.Is(err, rvm.ErrPoisoned) {
		recordOutage()
	}
	return err == nil
}

func recordOutage() {}
