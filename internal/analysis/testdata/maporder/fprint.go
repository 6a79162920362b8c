// The shape every real hash-a-map site in the module uses: formatted
// or copied into the hash rather than h.Write — fmt.Fprintf and
// io.WriteString with a hash.Hash as their first argument. The same
// calls into a plain buffer are determinism's business, not
// maporder's.
package fixture

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
)

func DigestFormatted(files map[string]string) []byte {
	h := sha256.New()
	for p, content := range files { //want maporder
		fmt.Fprintf(h, "%s\x00%s\x00", p, content)
	}
	return h.Sum(nil)
}

func DigestCopied(names map[string]bool) uint64 {
	h := fnv.New64a()
	for n := range names { //want maporder
		io.WriteString(h, n)
	}
	return h.Sum64()
}

// DigestFormattedSorted is the repaired shape.
func DigestFormattedSorted(files map[string]string) []byte {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%s\x00", p, files[p])
	}
	return h.Sum(nil)
}

// RenderLines formats into a buffer: no hash, no encoder.
func RenderLines(vals map[string]int) string {
	var b strings.Builder
	for k, v := range vals {
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}
