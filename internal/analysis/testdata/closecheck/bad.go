// Package fixture exercises closecheck: files, tickers, timers and response
// bodies with at least one exit path that leaks them.
package fixture

import (
	"net/http"
	"os"
	"time"
)

// leakOnBranch closes the file on the fall-through path but leaks it
// on the verbose early return.
func leakOnBranch(path string, verbose bool) error {
	f, err := os.Open(path) //want closecheck
	if err != nil {
		return err
	}
	if verbose {
		return nil
	}
	f.Close()
	return nil
}

// tickerNoStop returns out of the loop with the ticker still running.
func tickerNoStop(interval time.Duration, done chan struct{}) {
	t := time.NewTicker(interval) //want closecheck
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}

// bodyLeak reads a field off the response and returns; the body is
// never closed (reading StatusCode is a use, not a transfer).
func bodyLeak(url string) (int, error) {
	resp, err := http.Get(url) //want closecheck
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// closeInOneArm is the near-miss shape: the happy path closes, the
// size-zero path forgets.
func closeInOneArm(path string) error {
	f, err := os.Open(path) //want closecheck
	if err != nil {
		return err
	}
	fi, serr := f.Stat()
	if serr != nil {
		return serr
	}
	if fi.Size() == 0 {
		return nil
	}
	f.Close()
	return nil
}

// timerNoStop returns early with the timer neither stopped nor fired.
func timerNoStop(d time.Duration, skip bool) {
	t := time.NewTimer(d) //want closecheck
	if skip {
		return
	}
	<-t.C
}
