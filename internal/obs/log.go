package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the shared slog logger the cmd binaries use: a text
// handler for terminals (timestamps dropped — the CLIs' output is diffed
// and piped, and wall-clock stamps are noise there) or, with jsonFormat,
// a JSON handler with full timestamps for log shippers.
func NewLogger(w io.Writer, jsonFormat bool, level slog.Leveler) *slog.Logger {
	if jsonFormat {
		return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	}))
}

// ParseLevel maps a -log-level flag value (debug, info, warn, error;
// case-insensitive) to a slog.Level. An unknown value is an error naming
// it; the level returned with the error is Info, so a caller can still
// build a logger to report the error with.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}
