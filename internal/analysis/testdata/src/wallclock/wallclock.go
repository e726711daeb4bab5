// Fixture for the wallclock analyzer: reading or waiting on real time in
// an engine package is flagged; pure time.Duration values and justified
// I/O deadlines are not.
package fed

import "time"

func readsClock() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

func measures(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since reads the wall clock`
}

func sleeps() {
	time.Sleep(time.Millisecond) // want `time.Sleep reads the wall clock`
}

func waits() <-chan time.Time {
	return time.After(5 * time.Second) // want `time.After reads the wall clock`
}

func pureDurations() time.Duration {
	return 3 * time.Second // a constant Duration never reads the clock
}

func pureConstruction() time.Time {
	return time.Unix(1700000000, 0) // explicit instant, not the wall clock
}

func pureComparison(a, b time.Time) bool {
	return a.After(b) // a method comparing two instants, not time.After
}

type conn interface{ SetReadDeadline(t time.Time) error }

func justifiedDeadline(c conn) {
	//fluxvet:allow wallclock real socket read deadline; network I/O is outside simulated time
	c.SetReadDeadline(time.Now().Add(time.Second))
}
