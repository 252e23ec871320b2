package obs

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
)

// NewLogger builds a daemon's process logger on stderr from its -log-level
// (debug, info, warn, error) and -log-format (text, json) flag values.
func NewLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}
