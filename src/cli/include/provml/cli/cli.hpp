// The `yprov` command-line interface (paper: "the yProv command line
// interface (CLI), which provides a set of commands for invoking the
// RESTful APIs"). Implemented as a function so tests can drive it without
// spawning processes.
//
//   yprov validate <file.provjson>
//   yprov stats    <file.provjson>
//   yprov convert  <file.provjson> --to provn|dot [--out <path>]
//   yprov diff     <a.provjson> <b.provjson>
//   yprov lineage  <file.provjson> <element-id> [--direction up|down] [--depth N]
//   yprov ingest   <store-dir> <name=file.provjson>...
//   yprov list     <store-dir>
//   yprov get      <store-dir> <name> [--element <id>]
//   yprov pack     <file> <out> [--codec lzss|rle|shuffle+lzss]
//   yprov unpack   <file> <out>
//   yprov serve    [--port N] [--threads K] [--data-dir DIR]
//
// `ingest`, `query`, and `stats` also accept `--url http://host:port` to
// talk to a running `yprov serve` instance over HTTP instead of a local
// store directory.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace provml::cli {

/// Dispatches one invocation; returns the process exit code (0 = success).
/// All human-readable output goes to `out`, errors to `err`.
int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

/// The usage text printed for `yprov help` and argument errors.
[[nodiscard]] std::string usage();

}  // namespace provml::cli
