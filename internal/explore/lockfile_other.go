//go:build !unix

package explore

import "os"

// Non-unix platforms get no inter-process exclusion: the session mutex
// already serializes in-process writers and the snapshot files are still
// replaced atomically, so one session at a time is fully safe; a second
// session is still refused by its runs.csv check unless both search at once.
func flockExclusive(*os.File) error { return nil }

func flockRelease(*os.File) error { return nil }
