package wal

// Unframe is unframe, for the fuzz targets of package wal_test (which
// imports internal/core to seed them from a real log, so cannot live here).
var Unframe = unframe
