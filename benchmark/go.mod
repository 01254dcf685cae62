// The benchmark is a module of its own so that it builds from its own
// build file; it reaches the program through the repo module one
// directory up, the way any importer inside the repro/ tree may.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
