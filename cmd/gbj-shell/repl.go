package main

// The read-eval loop both shells share. The embedded shell and the -connect
// client differ only in how they run a statement and which backslash
// commands they know beyond the shared \quit, \timing and \timeout.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// mode is what a shell runs its input against: an embedded engine or a
// gbj-server session.
type mode struct {
	// statement runs one statement: its lines, the last ending in ';'.
	statement func(stmt string) error
	// command runs a backslash command the loop does not share; false when
	// the mode has no command by that name.
	command func(line string, fields []string) bool
	// more is the prompt for a statement's continuation lines.
	more string
	// unknown follows the name in the report of an unknown command.
	unknown string
}

// repl reads in until EOF or \quit. A line that starts with a backslash at
// the start of a statement is a command; any other line adds to the
// statement, which runs once a line ends in ';'. Prompts and the shared
// commands' replies go to out, a failed statement's error to errOut.
func repl(in io.Reader, out, errOut io.Writer, m mode) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "gbj> "
	for {
		fmt.Fprint(out, prompt)
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !command(out, m, trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			prompt = m.more
			continue
		}
		stmt := buf.String()
		buf.Reset()
		prompt = "gbj> "
		if err := m.statement(stmt); err != nil {
			fmt.Fprintln(errOut, "error:", err)
		}
	}
}

// command runs one backslash command line; false when it is \quit.
func command(out io.Writer, m mode, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return false
	case `\timing`:
		timing = !timing
		if timing {
			fmt.Fprintln(out, "timing is on")
		} else {
			fmt.Fprintln(out, "timing is off")
		}
	case `\timeout`:
		setTimeout(out, fields)
	default:
		if !m.command(line, fields) {
			fmt.Fprintf(out, "unknown command %s%s\n", fields[0], m.unknown)
		}
	}
	return true
}

// setTimeout is \timeout: a per-query deadline, or none.
func setTimeout(out io.Writer, fields []string) {
	if len(fields) != 2 {
		fmt.Fprintln(out, `usage: \timeout 30s|off`)
		return
	}
	if fields[1] == "off" || fields[1] == "0" {
		queryTimeout = 0
		fmt.Fprintln(out, "timeout is off")
		return
	}
	d, err := time.ParseDuration(fields[1])
	if err != nil || d < 0 {
		fmt.Fprintln(out, `usage: \timeout 30s|off`)
		return
	}
	queryTimeout = d
	fmt.Fprintf(out, "timeout: %v per query\n", d)
}
