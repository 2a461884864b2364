#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload join_stream --seed 1 --seconds 10 --trace 0
#
# Builds bench/ (a module of its own, which replaces hierdb with the
# checkout around it) and runs it. Everything the build and the run
# write stays inside the checkout: the Go build cache, temporary
# files, the go command's own configuration and telemetry counters and
# the binary under .bench_build/, traces and scratch tables under
# bench/out/. The first build in a checkout compiles the standard
# library into the fresh cache and takes about a minute.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C bench -o "$build/hdbbench" .
exec "$build/hdbbench" -trace-out bench/out "$@"
