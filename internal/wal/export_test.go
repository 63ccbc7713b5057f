package wal

// Unframe is unframe, for the fuzz targets of package wal_test (which
// imports internal/core to seed them from a real log, so cannot live here).
var Unframe = unframe

// frame returns payload framed as the log frames a record.
func frame(payload []byte) []byte {
	return appendFrame(nil, func(b []byte) []byte { return append(b, payload...) })
}
