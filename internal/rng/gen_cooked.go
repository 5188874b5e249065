//go:build ignore

// gen_cooked copies math/rand's rngCooked table out of the installed Go
// toolchain's source tree into cooked.go. Run it with `go generate
// ./internal/rng`; it reads $(go env GOROOT)/src/math/rand/rng.go and needs
// no network.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// rngLen is math/rand's register length, the size of the table.
const rngLen = 607

func main() {
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		log.Fatalf("go env GOROOT: %v", err)
	}
	path := filepath.Join(strings.TrimSpace(string(out)), "src", "math", "rand", "rng.go")
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	start := bytes.Index(src, []byte("rngCooked [rngLen]int64 = [...]int64{"))
	if start < 0 {
		log.Fatalf("%s: rngCooked table not found", path)
	}
	body := src[start:]
	body = body[bytes.IndexByte(body, '{')+1 : bytes.IndexByte(body, '}')]
	nums := regexp.MustCompile(`-?[0-9]+`).FindAll(body, -1)
	if len(nums) != rngLen {
		log.Fatalf("%s: rngCooked has %d entries, want %d", path, len(nums), rngLen)
	}

	var b bytes.Buffer
	b.WriteString("// Code generated by gen_cooked.go from math/rand's rng.go; DO NOT EDIT.\n\n")
	b.WriteString("// Copyright 2009 The Go Authors. All rights reserved.\n")
	b.WriteString("// Use of this source code is governed by a BSD-style\n")
	b.WriteString("// license that can be found in the Go distribution's LICENSE file.\n\n")
	b.WriteString("package rng\n\n")
	b.WriteString("// rngCooked is math/rand's seeding table: register entry i is the\n")
	b.WriteString("// seeded LCG output XORed with rngCooked[i].\n")
	b.WriteString("var rngCooked = [rngLen]int64{\n")
	for i, n := range nums {
		fmt.Fprintf(&b, "%s,", n)
		if i%4 == 3 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteString("\n}\n")
	formatted, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("cooked.go", formatted, 0o644); err != nil {
		log.Fatal(err)
	}
}
