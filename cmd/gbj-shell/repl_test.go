package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro"
)

// TestREPL drives the shared loop with a mode that records what reaches it:
// a statement runs once a line ends in ';', a backslash starts a command only
// at a statement's start, the mode sees the commands the loop does not
// share, an unknown one is reported, a failed statement's error goes to the
// error stream, an engine command's rejected setting — Config.Validate's
// error — goes there too and leaves the engine as it was, and \quit ends the
// loop with input still unread.
func TestREPL(t *testing.T) {
	defer func() { timing, queryTimeout = false, 0 }()
	var stmts, cmds []string
	var out, errOut strings.Builder
	engine := gbj.New()
	m := mode{
		statement: func(stmt string) error {
			stmts = append(stmts, stmt)
			if strings.Contains(stmt, "FAIL") {
				return errors.New("boom")
			}
			return nil
		},
		command: func(line string, fields []string) bool {
			cmds = append(cmds, line)
			return fields[0] == `\known` || engineCommand(engine, &out, &errOut, line, fields)
		},
		more:    "...> ",
		unknown: " (here)",
	}
	in := strings.Join([]string{
		"SELECT 1",
		"  FROM T;",
		`\timing`,
		"SELECT",
		`\not-a-command;`,
		`  \known a b`,
		`\bogus`,
		`\retries -1`,
		"FAIL; ",
		`\timeout 2s`,
		`\quit`,
		"SELECT 3;",
	}, "\n")
	repl(strings.NewReader(in), &out, &errOut, m)

	if want := []string{"SELECT 1\n  FROM T;\n", "SELECT\n\\not-a-command;\n", "FAIL; \n"}; !slices.Equal(stmts, want) {
		t.Errorf("statements %q, want %q", stmts, want)
	}
	if want := []string{`\known a b`, `\bogus`, `\retries -1`}; !slices.Equal(cmds, want) {
		t.Errorf("mode commands %q, want %q", cmds, want)
	}
	wantOut := "gbj> ...> " +
		"gbj> timing is on\n" +
		"gbj> ...> " +
		"gbj> gbj> unknown command \\bogus (here)\n" +
		"gbj> gbj> gbj> timeout: 2s per query\n" +
		"gbj> "
	if got := out.String(); got != wantOut {
		t.Errorf("output\n%q\nwant\n%q", got, wantOut)
	}
	wantErr := "error: gbj: Config.LinkRetries must be >= 0, got -1\n" +
		"error: boom\n"
	if got := errOut.String(); got != wantErr {
		t.Errorf("error stream %q, want the rejected setting's and the failed statement's errors", got)
	}
	if got := engine.Config().LinkRetries; got != 0 {
		t.Errorf("\\retries -1 left the retry budget at %d, want 0", got)
	}
	if !timing || queryTimeout.String() != "2s" {
		t.Errorf("timing=%v timeout=%v after \\timing and \\timeout 2s", timing, queryTimeout)
	}
}
