// Package repro is a Go reproduction of "Streaming Message Interface:
// High-Performance Distributed Memory Programming on Reconfigurable
// Hardware" (De Matteis, de Fine Licht, Beránek, Hoefler; SC 2019).
//
// The SMI library itself lives in internal/core; the cycle-driven
// multi-FPGA simulator it runs on is internal/sim with its substrates
// (packet, topology, routing, link, transport, fpga). The harness
// regenerating every table and figure of the paper's evaluation is
// internal/bench, driven by cmd/smibench and pinned byte for byte to
// results_full.txt by its golden test; wall-clock measurement is
// `go run ./benchmark`. See README.md, DESIGN.md and EXPERIMENTS.md.
package repro
